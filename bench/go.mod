module authmem/bench

go 1.22

require authmem v0.0.0

replace authmem => ../
