module rmb/bench

go 1.22

require rmb v0.0.0

replace rmb => ../
