module hyperx/bench

go 1.22

require hyperx v0.0.0

replace hyperx => ../
