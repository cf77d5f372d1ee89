module manetsim/bench

go 1.23

require manetsim v0.0.0

replace manetsim => ../
