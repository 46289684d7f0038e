module vaq/bench

go 1.22

require vaq v0.0.0

replace vaq => ../
