module mirror/bench

go 1.22

require mirror v0.0.0

replace mirror => ../
