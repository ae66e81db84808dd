package core

// This file is the query-time half of the live-update pipeline's
// insertion tier. An edge inserted into the graph after the labels
// were built cannot be expressed as a forbidden-set member (faults
// only remove), so until a compaction bakes it into a new label
// generation it joins the query's one sketch H(s,t,F) directly: the
// labels L(u), L(v) of its endpoints become extra owners — their stored
// edges pass the same protected-ball tests as those of s, t and F, but
// u and v are never protected-ball centers — and {u,v} itself becomes
// one unit-weight sketch edge at the lowest level. One decode, one
// Dijkstra, and the witness walk comes out of that same search.
//
// Soundness is the paper's own safety lemma: an edge of any owner's
// H_ℓ that lies outside every protected ball PB_ℓ(f), f ∈ F, is a real
// path of G\F at its stored weight, whoever's label it came from; a
// patch edge exists in the mutated graph G′ and is admitted only when
// neither it nor its endpoints are in F. So every sketch path is a walk
// of G′\F and the answer stays an upper bound on d_{G′\F}(s,t). Routes
// through any number of inserted edges are found, but the (1+ε)
// stretch bound is NOT guaranteed across patches (the labels around a
// patch still describe the old graph's nets); the serving layer reports
// exact:false while any delta is pending, which is precisely when
// patches are in play.
//
// Budget and trace: Query.Budget caps the stored edges examined for
// this single sketch, every owner's. Patch owners are scanned after s,
// t and F, so a tight budget gives up the shortcuts' surroundings before
// the base answer; the patch edges themselves (the serving layer applies
// at most 256) are not charged, so the budget buys the base sketch what
// it buys an unpatched query. Trace.AdmittedPerLevel[0] counts the
// patch edges.

// PatchEdge is one not-yet-compacted inserted edge (U.V, V.V),
// described — like everything else at decode time — by the labels of
// its endpoints. A nil or unusable endpoint label silently disables
// the patch: answers stay sound, only the shortcut is missed.
type PatchEdge struct {
	U, V *Label
}

// addOwner makes l's stored edges candidates of the sketch, once: l
// joins the fault frame's owners, which every decode under this fault set
// and these patches scans after s and t.
func (sc *decodeScratch) addOwner(l *Label) {
	if sc.seenOwner.add(l.V) {
		sc.frameOwners = append(sc.frameOwners, l)
	}
}

// admitPatches adds every admissible patch to the fault frame under
// construction: its edge as a unit-weight candidate at the lowest level
// (free of budget; decode counts them in the trace's level-0 tally) and
// its endpoint labels as owners. It runs after fvList/feList are sorted
// and before the owner scans. A patch is admissible when both labels
// are usable, it is not a self-loop, and neither endpoint nor the edge
// is forbidden (labeled and degraded faults alike) — all of it read off
// the frame's key, none of it off s or t beyond the scheme parameters
// every label of a query shares.
func (sc *decodeScratch) admitPatches(q *Query, patches []PatchEdge) {
	sc.patchKeys = sc.patchKeys[:0]
	for _, p := range patches {
		if !usableWith(p.U, q.S) || !usableWith(p.V, q.S) || p.U.V == p.V.V {
			continue
		}
		key := unorderedKey(p.U.V, p.V.V)
		if containsSorted(sc.fvList, p.U.V) || containsSorted(sc.fvList, p.V.V) || containsSorted(sc.feList, key) {
			continue
		}
		sc.patchKeys = append(sc.patchKeys, key)
		sc.addOwner(p.U)
		sc.addOwner(p.V)
	}
}
