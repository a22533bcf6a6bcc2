package main

import "time"

// The yardstick is a fixed computation, independent of the simulator,
// that leans on what the simulator leans on: freshly allocated memory,
// bulk copies, dependent cache-missing loads, integer work and goroutine
// hand-offs. One runs beside every measured iteration, and host times
// are reported as multiples of it, scaled to milliseconds by
// yardNominalMs.
//
// The reason is the shared host. A register-only loop here repeats
// within 1 %, but anything that touches memory drifts by 10–30 % over
// minutes as neighbours come and go (the simulator is bound by memory
// latency: ten 20 s runs of serve_net spread 20 % on raw wall time
// whichever quantile is taken). The yardstick drifts with it, so the
// ratio holds within a few per cent, while a real change to the
// simulator moves the ratio by exactly as much as it moves the time.
const yardNominalMs = 20 // what one yardstick costs on this host when it is quiet

var (
	yardSrc  = make([]byte, 4<<20)
	yardDst  = make([]byte, 4<<20)
	yardNext = yardPermutation(1 << 20)
	yardSink uint64
)

// yardPermutation returns a fixed random cycle-rich permutation: chasing
// it defeats the prefetcher, so each step is one cache-missing load.
func yardPermutation(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func yardstick() time.Duration {
	t0 := time.Now()
	fresh := make([]byte, 4<<20)
	for i := 0; i < len(fresh); i += 4096 {
		fresh[i] = 1
	}
	copy(yardDst, yardSrc)
	copy(fresh, yardDst)
	yardSink += uint64(fresh[12345])

	idx := int32(0)
	for i := 0; i < 300_000; i++ {
		idx = yardNext[idx]
	}
	yardSink += uint64(idx)

	x := uint64(1)
	for i := 0; i < 3_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	yardSink += x

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := 0; i < 3000; i++ {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
	return time.Since(t0)
}
