package cache

// prefetchSets hints the host to load, for each address, the cache line
// holding it and the next one: a 16-way set of 8-byte words. It never
// faults and changes no program state; unlike a load, a prefetch does not
// hold up the instructions behind it while the lines are in flight.
//
//go:noescape
func prefetchSets(addrs []uintptr)

// prefetchLines is prefetchSets for one cache line per address: the line
// holding it.
//
//go:noescape
func prefetchLines(addrs []uintptr)
