module qsub/benchmark

go 1.22

require qsub v0.0.0

replace qsub => ../
