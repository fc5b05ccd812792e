package cache

import "sort"

// refLine is the array-of-structs survivor record of referenceResize.
type refLine struct {
	lineAddr uint64
	lru      uint32
	valid    bool
	dirty    bool
}

// referenceResize is the original Resize, the oracle for the bucketed one:
// it collects every valid line, sorts the survivors globally by LRU tick
// with sort.Slice, and reinserts them one by one. It handles equal ticks
// too, which the bucketed Resize relies on never meeting.
func (c *Cache) referenceResize(newSize int64) error {
	cfg := Config{SizeBytes: newSize, Ways: c.ways}
	if err := cfg.Validate(); err != nil {
		return err
	}
	newSets := cfg.Sets()
	if newSets == c.sets {
		return nil
	}
	oldTags, oldLRU := c.tags, c.lru
	c.sets = newSets
	c.modHi, c.modLo = reciprocal(uint64(newSets))
	c.tags = make([]uint64, newSets*c.ways)
	c.lru = make([]uint32, newSets*c.ways)
	dirty := make([]bool, newSets*c.ways)
	// Reinsert surviving lines in LRU order (oldest first) so that when a
	// new set overflows, the most recently used lines win.
	survivors := make([]refLine, 0, len(oldTags))
	for i, t := range oldTags {
		if t != 0 {
			survivors = append(survivors, refLine{
				lineAddr: t&^dirtyBit - 1, lru: oldLRU[i], valid: true, dirty: t&dirtyBit != 0,
			})
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i].lru < survivors[j].lru })
	for _, l := range survivors {
		set := c.setIndex(l.lineAddr)
		base := set * c.ways
		placed := false
		slot, oldest := -1, ^uint32(0)
		for i := 0; i < c.ways; i++ {
			if c.tags[base+i] == 0 {
				c.tags[base+i] = l.lineAddr + 1
				c.lru[base+i] = l.lru
				dirty[base+i] = l.dirty
				placed = true
				break
			}
			if m := c.lru[base+i]; m < oldest {
				oldest = m
				slot = i
			}
		}
		if !placed {
			// Set over-full after shrink: replace the LRU occupant (which
			// is older because we insert oldest-first). The displaced line
			// is dropped; count its writeback if dirty.
			if oldest < l.lru {
				if dirty[base+slot] {
					c.stats.Writebacks++
				}
				c.tags[base+slot] = l.lineAddr + 1
				c.lru[base+slot] = l.lru
				dirty[base+slot] = l.dirty
			} else if l.dirty {
				c.stats.Writebacks++
			}
		}
	}
	for i, d := range dirty {
		if d {
			c.tags[i] |= dirtyBit
		}
	}
	return nil
}
