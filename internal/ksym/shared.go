package ksym

import "sync"

// maxShared bounds each of the package's two caches. A process builds
// scenarios from a handful of kernel builds (the experiment harness seeds
// VM slot i's kernel with 1000+i), so the bound is never reached in
// practice; past it, Generate and ParseShared build a fresh, equal result
// on every call instead of growing the cache.
const maxShared = 64

var (
	tables = tableCache{max: maxShared}
	parses = parseCache{max: maxShared}
)

// tableCache holds Generate's tables by seed.
type tableCache struct {
	mu     sync.Mutex
	max    int
	bySeed map[uint64]*Table
}

// generate returns the cached table of seed, building and caching it on
// first use while the cache has room.
func (c *tableCache) generate(seed uint64) *Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.bySeed[seed]; ok {
		return t
	}
	t := generate(seed)
	if len(c.bySeed) < c.max {
		if c.bySeed == nil {
			c.bySeed = make(map[uint64]*Table)
		}
		c.bySeed[seed] = t
	}
	return t
}

// parsed is one ParseShared result.
type parsed struct {
	tab     *Table
	classes []Class
	err     error
}

// parseCache holds ParseShared's results keyed on the blob's bytes.
type parseCache struct {
	mu    sync.Mutex
	max   int
	byMap map[string]parsed
}

// ParseShared parses a System.map blob as Parse does and also returns the
// class of every symbol, indexed like Table.Index. Each distinct blob is
// parsed once per process: a later call with the same bytes returns the
// same table, classes and error. The key is the blob's content, never its
// identity, so a result is reused only for a byte-identical map and the
// caller may modify or reuse blob afterwards. The table and the classes
// are shared and must not be modified.
func ParseShared(blob []byte) (*Table, []Class, error) { return parses.parse(blob) }

func (c *parseCache) parse(blob []byte) (*Table, []Class, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.byMap[string(blob)]; ok {
		return p.tab, p.classes, p.err
	}
	// The key is a copy of blob, and the table's symbol names are
	// substrings of it.
	text := string(blob)
	var p parsed
	if p.tab, p.err = parse(text, nil); p.err == nil {
		p.classes = p.tab.classes()
	}
	if len(c.byMap) < c.max {
		if c.byMap == nil {
			c.byMap = make(map[string]parsed)
		}
		c.byMap[text] = p
	}
	return p.tab, p.classes, p.err
}
