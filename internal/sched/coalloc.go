package sched

import "repro/internal/job"

// shareTable is one scheduling pass's co-allocation candidate table. The
// cluster is read-only while a policy runs, so which nodes can take a guest
// at all, and which running jobs host them, is fixed for the pass; the
// table records that once instead of re-deriving it per queued job and per
// node. Per guest shape it then derives the usable nodes from one pairing
// evaluation per resident class.
type shareTable struct {
	// nodes are the nodes that can take a guest at all, ascending: busy,
	// schedulable, with a fully free layer, below MaxDegree residents, and
	// hosting at least one job of ctx.Running.
	nodes []tableNode
	// sharable counts the busy, schedulable nodes with a fully free layer
	// below MaxDegree residents, whether or not ctx.Running hosts them.
	sharable int
	// pos maps a node index to its position in nodes, or -1.
	pos []int32
	// classes holds one representative resident set per distinct sequence
	// of resident applications; tableNode.class indexes it.
	classes [][]*RunningJob
	// hosts are the running jobs, in ctx.Running order, with at least one
	// node in the table.
	hosts []tableHost
	// guests memoizes guest by (application, memory per node).
	guests map[guestKey]*guestCands
	// seen is hostGroupsFor's scratch over node indices; it is all false
	// between calls.
	seen nodeMarks
}

// tableNode is one qualifying node.
type tableNode struct {
	node      int
	memFreeMB int
	class     int
}

// tableHost is one running job with the table nodes among its NodeIDs, in
// NodeIDs order.
type tableHost struct {
	job   *RunningJob
	nodes []int
}

type guestKey struct {
	app   string
	memMB int
}

// guestCands is the table's answer for one guest shape.
type guestCands struct {
	memMB int
	// compat is the pairing evaluation against each resident class.
	compat []compatProfile
	// usable are the table nodes with enough free memory whose resident
	// class accepts the guest, ascending.
	usable []int
}

// shareTable returns the pass's candidate table, building it on first use.
func (ctx *Context) shareTable() *shareTable {
	if ctx.table != nil {
		return ctx.table
	}
	c := ctx.Cluster
	t := &shareTable{
		pos:    make([]int32, c.Size()),
		guests: make(map[guestKey]*guestCands),
		seen:   newMarks(ctx),
	}
	for i := range t.pos {
		t.pos[i] = -1
	}
	classOf := make(map[string]int)
	// BusyFreeLayerNodes already holds only busy, schedulable nodes with a
	// fully free layer.
	busy := c.BusyFreeLayerNodes()
	t.nodes = make([]tableNode, 0, len(busy))
	for _, ni := range busy {
		n := c.Node(ni)
		if n.SharingDegree() >= ctx.Share.MaxDegree {
			continue
		}
		t.sharable++
		residents := ctx.residents(ni)
		if len(residents) == 0 {
			continue // busy but no running record: a foreign allocation
		}
		key := residentsKey(residents)
		k, ok := classOf[key]
		if !ok {
			k = len(t.classes)
			classOf[key] = k
			t.classes = append(t.classes, residents)
		}
		t.pos[ni] = int32(len(t.nodes))
		t.nodes = append(t.nodes, tableNode{node: ni, memFreeMB: n.MemFreeMB(), class: k})
	}
	if len(t.nodes) > 0 {
		flat := make([]int, 0, len(t.nodes))
		t.hosts = make([]tableHost, 0, len(t.nodes))
		for _, r := range ctx.Running {
			from := len(flat)
			for _, ni := range r.NodeIDs {
				if t.pos[ni] >= 0 {
					flat = append(flat, ni)
				}
			}
			if len(flat) > from {
				t.hosts = append(t.hosts, tableHost{job: r, nodes: flat[from:len(flat):len(flat)]})
			}
		}
	}
	ctx.table = t
	return t
}

// guest returns the candidates for guest job j, deriving them on first use
// for j's (application, memory per node).
func (t *shareTable) guest(ctx *Context, j *job.Job) *guestCands {
	key := guestKey{app: j.App.Name, memMB: j.App.MemPerNodeMB}
	if g, ok := t.guests[key]; ok {
		return g
	}
	g := &guestCands{
		memMB:  key.memMB,
		compat: make([]compatProfile, len(t.classes)),
		usable: make([]int, 0, len(t.nodes)),
	}
	for k, residents := range t.classes {
		g.compat[k] = ctx.pairing(j, residents)
	}
	for _, tn := range t.nodes {
		if tn.memFreeMB >= g.memMB && g.compat[tn.class].ok {
			g.usable = append(g.usable, tn.node)
		}
	}
	t.guests[key] = g
	return g
}

// at reports whether table node ni can host the guest and, if so, returns
// the pairing score (worst complementarity across residents) and the guest's
// estimated progress rate there.
func (g *guestCands) at(t *shareTable, ni int) (shareCandidate, bool) {
	k := t.pos[ni]
	if k < 0 {
		return shareCandidate{}, false
	}
	tn := t.nodes[k]
	if tn.memFreeMB < g.memMB {
		return shareCandidate{}, false
	}
	p := g.compat[tn.class]
	if !p.ok {
		return shareCandidate{}, false
	}
	return shareCandidate{node: ni, score: p.score, rate: p.rate}, true
}
