package cache

import "fmt"

// referenceShadows is the original monitor's shadow arrays, kept as the
// oracle for ShadowSet: monitor.New's construction loop, one full Cache per
// candidate size. As in ShadowSet, only a sampled array is kept to four
// sets or more.
func referenceShadows(sizes []int64, ways int, sampleLog2 uint) ([]*Cache, error) {
	var shadows []*Cache
	for _, size := range sizes {
		shadowSize := size >> sampleLog2
		minSize := int64(ways * LineBytes * 4) // keep >= 4 sets
		if sampleLog2 > 0 && shadowSize < minSize {
			shadowSize = minSize
		}
		c, err := New(Config{SizeBytes: shadowSize, Ways: ways})
		if err != nil {
			return nil, fmt.Errorf("monitor: shadow for size %d: %w", size, err)
		}
		shadows = append(shadows, c)
	}
	return shadows, nil
}

// referenceHitMask is the original monitor.HitMask's probe loop, without
// its sampling check.
func referenceHitMask(shadows []*Cache, addr uint64) uint16 {
	var mask uint16
	for s, shadow := range shadows {
		if shadow.referenceShadowAccess(addr) {
			mask |= 1 << s
		}
	}
	return mask
}

// referenceShadowAccess is the original Cache.ShadowAccess: Access's
// lookup, LRU bookkeeping and victim scan, with no statistics or
// dirty-line tracking.
func (c *Cache) referenceShadowAccess(addr uint64) bool {
	lineAddr := addr / LineBytes
	set := c.setIndex(lineAddr)
	base := set * c.ways
	tags := c.tags[base : base+c.ways]
	tag := lineAddr + 1
	c.tick++
	hit, empty := -1, -1
	for i, t := range tags {
		if t == tag {
			hit = i
			break
		}
		if t == 0 && empty < 0 {
			empty = i
		}
	}
	if hit >= 0 {
		c.lru[base+hit] = c.tick
		return true
	}
	slot := empty
	if slot < 0 {
		slot = c.lruVictim(base)
	}
	c.tags[base+slot] = tag
	c.lru[base+slot] = c.tick
	return false
}
