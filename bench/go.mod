module qtrade/bench

go 1.22

require qtrade v0.0.0

replace qtrade => ../
