module smalldb/benchmark

go 1.22

require smalldb v0.0.0

replace smalldb => ../
