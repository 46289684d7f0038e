package main

import "fixture/internal/lib"

func main() {
	var t lib.Thing
	t.Used()
	_ = lib.Live()
}
