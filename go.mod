module kdp

go 1.23
