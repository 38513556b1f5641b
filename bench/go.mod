module accuracytrader/bench

go 1.22

require accuracytrader v0.0.0

replace accuracytrader => ../
