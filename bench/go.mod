module hyper/bench

go 1.24

require hyper v0.0.0

replace hyper => ../
