package storage

import (
	"fmt"
	"sync/atomic"

	"repro/internal/types"
)

// skiplist is the ordered index layout: keys sorted by types.Row.Compare,
// each key node holding the versioned refs indexed under it. A
// deterministic xorshift generator drives level assignment so index shape
// (and therefore benchmarks) are reproducible run to run.
//
// The structure is single-writer / many-reader with zero reader locks:
// next links are atomic pointers and each node's ref slice is replaced
// copy-on-write, so a snapshot reader traversing mid-mutation sees either
// the old or the new state of any link, never a torn one. Unlinked key
// nodes are epoch-retired (epoch.go) — a straggling reader that entered
// before the unlink keeps a fully intact node, including its outgoing
// links, until every such reader exits.
const maxLevel = 24

// inlineLevels is how many tower levels a key node holds in its own
// allocation. With p = 1/4 per level, 1 - 4^-4 (99.6%) of nodes fit;
// taller ones and the head get a separately allocated tower.
const inlineLevels = 4

// slNode is one key's node. key and the ref slice a reader loads are
// immutable once published; mutation publishes a fresh slice. The fields
// are rewritten in place only between pool reuse and republication, when
// the epoch grace period guarantees no reader holds the node.
//
// tower holds the node's next links, one per level it occupies: it aliases
// inl for nodes up to inlineLevels tall. A one-column key lives in k1 (key
// aliases it), so the common node is one 128-byte allocation; wider keys
// are cloned. Because an inline key is rewritten on reuse, a reader may
// use key only inside the epoch it found the node in.
type slNode struct {
	key   types.Row
	refs  atomic.Pointer[[]ixRef]
	tower []atomic.Pointer[slNode]
	inl   [inlineLevels]atomic.Pointer[slNode]
	k1    [1]types.Value
}

// init sets a fresh or reused node's key and sizes its tower to height
// levels, all nil. Worker-only, before the node is published.
func (n *slNode) init(key types.Row, height int) {
	if len(key) == 1 {
		n.k1[0] = key[0]
		n.key = n.k1[:]
	} else {
		n.key = key.Clone()
	}
	switch {
	case height <= inlineLevels:
		n.tower = n.inl[:height]
	case cap(n.tower) >= height: // an earlier overflow tower; inl is too short
		n.tower = n.tower[:height]
	default:
		n.tower = make([]atomic.Pointer[slNode], height)
	}
}

// loadRefs returns the node's current ref slice (nil-safe). The slice is
// immutable; callers must not modify it.
func (n *slNode) loadRefs() []ixRef {
	if p := n.refs.Load(); p != nil {
		return *p
	}
	return nil
}

type skiplist struct {
	head   *slNode
	length int // worker-only: distinct keys with at least one ref
	rng    uint64
	em     *EpochManager
}

func newSkiplist(em *EpochManager) *skiplist {
	head := &slNode{tower: make([]atomic.Pointer[slNode], maxLevel)}
	return &skiplist{head: head, rng: 0x9E3779B97F4A7C15, em: em}
}

func (s *skiplist) randLevel() int {
	// xorshift64*; take one level per set low bit pair (p = 1/4 per level).
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	x *= 0x2545F4914F6CDD1D
	lvl := 1
	for lvl < maxLevel && x&3 == 0 {
		lvl++
		x >>= 2
	}
	return lvl
}

// findPredecessors fills update with the rightmost node at each level whose
// key is strictly less than key, returning the candidate node (which may or
// may not match key). Descends from the top level unconditionally — unused
// high levels cost one nil check each — so readers need no shared level
// counter. Safe from reader goroutines inside an epoch.
func (s *skiplist) findPredecessors(key types.Row, update *[maxLevel]*slNode) *slNode {
	x := s.head
	for i := maxLevel - 1; i >= 0; i-- {
		for {
			nx := x.tower[i].Load()
			if nx == nil || nx.key.Compare(key) >= 0 {
				break
			}
			x = nx
		}
		update[i] = x
	}
	return x.tower[0].Load()
}

func (s *skiplist) insert(key types.Row, id RowID, born Seq, unique bool) error {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand != nil && cand.key.Compare(key) == 0 {
		refs := cand.loadRefs()
		if unique && liveRef(refs) >= 0 {
			return fmt.Errorf("duplicate key %v", key.Clone())
		}
		nw := make([]ixRef, len(refs)+1)
		copy(nw, refs)
		nw[len(refs)] = ixRef{id: id, born: born, dead: SeqInf}
		cand.refs.Store(&nw)
		return nil
	}
	lvl := s.randLevel()
	n := slNodePool.Get().(*slNode)
	n.init(key, lvl)
	n.refs.Store(singleRef(ixRef{id: id, born: born, dead: SeqInf}))
	for i := 0; i < lvl; i++ {
		n.tower[i].Store(update[i].tower[i].Load())
	}
	// Publish bottom-up: once a level links the node, every lower level
	// already does, so a reader descending into n never falls off.
	for i := 0; i < lvl; i++ {
		update[i].tower[i].Store(n)
	}
	s.length++
	return nil
}

// remove stamps the live ref for id dead at the given sequence. The node
// stays linked for snapshot readers until gc reclaims its last ref.
func (s *skiplist) remove(key types.Row, id RowID, dead Seq) bool {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand == nil || cand.key.Compare(key) != 0 {
		return false
	}
	refs := cand.loadRefs()
	if j := findRef(refs, id); j >= 0 {
		nw := append([]ixRef(nil), refs...)
		nw[j].dead = dead
		cand.refs.Store(&nw)
		return true
	}
	return false
}

// eraseLive physically removes the live ref for id (undo of insert),
// unlinking and retiring the node when it empties.
func (s *skiplist) eraseLive(key types.Row, id RowID) bool {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand == nil || cand.key.Compare(key) != 0 {
		return false
	}
	refs := cand.loadRefs()
	j := findRef(refs, id)
	if j < 0 {
		return false
	}
	nw := make([]ixRef, 0, len(refs)-1)
	nw = append(nw, refs[:j]...)
	nw = append(nw, refs[j+1:]...)
	cand.refs.Store(&nw)
	if len(nw) == 0 {
		s.unlink(cand, &update)
	}
	return true
}

// revive resets the ref for id stamped dead at exactly the given sequence
// (the latest-born match — see reviveRef).
func (s *skiplist) revive(key types.Row, id RowID, dead Seq) bool {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand == nil || cand.key.Compare(key) != 0 {
		return false
	}
	refs := cand.loadRefs()
	best := reviveRef(refs, id, dead)
	if best < 0 {
		return false
	}
	nw := append([]ixRef(nil), refs...)
	nw[best].dead = SeqInf
	cand.refs.Store(&nw)
	return true
}

// unlink removes an emptied node from each level it occupies (top-down,
// so higher search lanes stop routing through it first) and retires it;
// update holds its predecessors. A reader already on n keeps following
// its intact next links until the grace period expires.
func (s *skiplist) unlink(n *slNode, update *[maxLevel]*slNode) {
	for i := len(n.tower) - 1; i >= 0; i-- {
		if update[i].tower[i].Load() == n {
			update[i].tower[i].Store(n.tower[i].Load())
		}
	}
	s.length--
	s.em.RetireSLNode(n)
}

// refsFor returns the ref slice of key's node, or nil when key has no
// node. Safe from reader goroutines inside an epoch.
func (s *skiplist) refsFor(key types.Row) []ixRef {
	var update [maxLevel]*slNode
	cand := s.findPredecessors(key, &update)
	if cand == nil || cand.key.Compare(key) != 0 {
		return nil
	}
	return cand.loadRefs()
}

// scan visits live refs with keys in [lo, hi] (nil = unbounded) in
// ascending key order.
func (s *skiplist) scan(lo, hi types.Row, fn func(key types.Row, id RowID) bool) {
	s.scanRefs(lo, hi, func(key types.Row, r ixRef) bool {
		if r.dead != SeqInf {
			return true
		}
		return fn(key, r.id)
	})
}

// scanAt visits refs visible at sequence s with keys in [lo, hi]. Safe
// from reader goroutines inside an epoch.
func (s *skiplist) scanAt(lo, hi types.Row, seq Seq, fn func(key types.Row, id RowID) bool) {
	s.scanRefs(lo, hi, func(key types.Row, r ixRef) bool {
		if !r.visibleAt(seq) {
			return true
		}
		return fn(key, r.id)
	})
}

func (s *skiplist) scanRefs(lo, hi types.Row, fn func(key types.Row, r ixRef) bool) {
	var x *slNode
	if lo == nil {
		x = s.head.tower[0].Load()
	} else {
		var update [maxLevel]*slNode
		x = s.findPredecessors(lo, &update)
	}
	for x != nil {
		if hi != nil && x.key.Compare(hi) > 0 {
			return
		}
		for _, r := range x.loadRefs() {
			if !fn(x.key, r) {
				return
			}
		}
		x = x.tower[0].Load()
	}
}

// gc drops refs dead at or below the watermark and unlinks emptied nodes.
func (s *skiplist) gc(watermark Seq) {
	var emptied []types.Row
	for x := s.head.tower[0].Load(); x != nil; x = x.tower[0].Load() {
		refs := x.loadRefs()
		drop := false
		for i := range refs {
			if refs[i].dead <= watermark {
				drop = true
				break
			}
		}
		if !drop {
			continue
		}
		nw := make([]ixRef, 0, len(refs))
		for _, r := range refs {
			if r.dead > watermark {
				nw = append(nw, r)
			}
		}
		x.refs.Store(&nw)
		if len(nw) == 0 {
			emptied = append(emptied, x.key)
		}
	}
	for _, key := range emptied {
		var update [maxLevel]*slNode
		cand := s.findPredecessors(key, &update)
		if cand != nil && cand.key.Compare(key) == 0 && len(cand.loadRefs()) == 0 {
			s.unlink(cand, &update)
		}
	}
}
