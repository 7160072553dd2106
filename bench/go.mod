module relaxsched/bench

go 1.24

require relaxsched v0.0.0

replace relaxsched => ../
