module gcplus/benchmark

go 1.24

require gcplus v0.0.0

replace gcplus => ../
