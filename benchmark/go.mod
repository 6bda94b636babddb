module netembed/benchmark

go 1.23

require netembed v0.0.0

replace netembed => ../
