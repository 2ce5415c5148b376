module graphtrek/benchmark

go 1.22

require graphtrek v0.0.0

replace graphtrek => ../
