//go:build !amd64

package cache

// prefetchSets is a no-op where no prefetch instruction is wired up.
func prefetchSets(addrs []uintptr) {}

// prefetchLines is a no-op where no prefetch instruction is wired up.
func prefetchLines(addrs []uintptr) {}
