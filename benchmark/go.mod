module iqolb/benchmark

go 1.22

require iqolb v0.0.0

replace iqolb => ../
