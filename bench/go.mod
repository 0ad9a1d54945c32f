module spatialsel/bench

go 1.22

require spatialsel v0.0.0

replace spatialsel => ../
