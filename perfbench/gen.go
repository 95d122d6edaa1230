package main

import (
	"hash/fnv"
	"slices"

	"streamrule/internal/asp/intern"
	"streamrule/internal/asp/solve"
	"streamrule/internal/rdf"
	"streamrule/internal/workload"
)

// itemStream is an unbounded, stationary, seeded triple stream: consecutive
// draws of `draw` triples from one generator. workload.Generator sizes its
// entity pools by the size of each draw, so drawing window-sized blocks
// keeps the per-window vocabulary of the paper's set-up at any run length
// (one Window(total) call would grow the vocabulary with the run).
type itemStream struct {
	g    *workload.Generator
	draw int
	buf  []rdf.Triple
	// strs shares one copy of every distinct subject and object string, so
	// a long stream costs a triple header per item, not three strings.
	strs map[string]string
}

func newItemStream(seed int64, specs []workload.TripleSpec, draw int) (*itemStream, error) {
	g, err := workload.NewGenerator(seed, specs)
	if err != nil {
		return nil, err
	}
	return &itemStream{g: g, draw: draw, strs: map[string]string{}}, nil
}

func (s *itemStream) intern(v string) string {
	if c, ok := s.strs[v]; ok {
		return c
	}
	s.strs[v] = v
	return v
}

// next appends the stream's next n triples to dst.
func (s *itemStream) next(dst []rdf.Triple, n int) []rdf.Triple {
	for n > 0 {
		if len(s.buf) == 0 {
			s.buf = s.g.Window(s.draw)
			for i := range s.buf {
				s.buf[i].S = s.intern(s.buf[i].S)
				s.buf[i].O = s.intern(s.buf[i].O)
			}
		}
		k := min(n, len(s.buf))
		dst = append(dst, s.buf[:k]...)
		s.buf = s.buf[k:]
		n -= k
	}
	return dst
}

// tenantResidualTraffic is workload.ResidualTraffic with tenant-prefixed
// entities, the residual counterpart of workload.TenantTraffic.
func tenantResidualTraffic(tenant string) []workload.TripleSpec {
	city := workload.Entity(tenant+"city", workload.EntityDivisor)
	car := workload.Entity(tenant+"car", 2*workload.EntityDivisor)
	return []workload.TripleSpec{
		{Pred: "average_speed", S: city, O: workload.NumRange(0, 40)},
		{Pred: "car_number", S: city, O: workload.NumRange(20, 80)},
		{Pred: "traffic_light", S: city},
		{Pred: "car_in_smoke", S: car, O: workload.Choice("high", "high", "low", "none"), Weight: 4},
		{Pred: "car_speed", S: car, O: workload.NumRange(0, 3), Weight: 4},
		{Pred: "car_location", S: car, O: city, Weight: 4},
	}
}

// digest fingerprints a window's answer sets by their interned atom IDs,
// translated into the process-wide default table, so it compares engines
// whose (non-rotating) tables differ. It is order-independent within and
// across sets.
func (t *idTranslator) digest(answers []*solve.AnswerSet) uint64 {
	sets := make([]uint64, len(answers))
	for i, a := range answers {
		h := uint64(a.Len())
		for _, id := range a.IDs() {
			h += mix64(uint64(t.id(a.Table(), id)))
		}
		sets[i] = h
	}
	return combineDigests(sets)
}

// idTranslator maps atom IDs of other tables to default-table IDs. The
// tables must not rotate while it is in use.
type idTranslator struct {
	tab *intern.Table
	m   map[intern.AtomID]intern.AtomID
}

func (t *idTranslator) id(tab *intern.Table, id intern.AtomID) intern.AtomID {
	def := intern.Default()
	if tab == def {
		return id
	}
	if tab != t.tab {
		t.tab, t.m = tab, map[intern.AtomID]intern.AtomID{}
	}
	d, ok := t.m[id]
	if !ok {
		d = def.InternAtom(tab.Atom(id))
		t.m[id] = d
	}
	return d
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// keyDigest fingerprints a window's answer sets by their atom keys, so it
// compares engines with different (and rotating) tables.
func keyDigest(answers []*solve.AnswerSet) uint64 {
	sets := make([]uint64, len(answers))
	for i, a := range answers {
		h := fnv.New64a()
		for _, k := range a.Keys() {
			h.Write([]byte(k))
			h.Write([]byte{0})
		}
		sets[i] = h.Sum64()
	}
	return combineDigests(sets)
}

func combineDigests(sets []uint64) uint64 {
	slices.Sort(sets)
	h := fnv.New64a()
	var b [8]byte
	for _, s := range sets {
		for i := range b {
			b[i] = byte(s >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64() ^ uint64(len(sets))
}
