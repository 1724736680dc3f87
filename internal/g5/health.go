package g5

// Serving-layer health surface: the per-board guard state the job
// server's /healthz endpoint reports. The GRAPE-6A operating model this
// repo reproduces is a shared PC-GRAPE cluster serving many hosts, and
// the first question an operator of such a cluster asks is "which
// boards are still in service?" — Health answers it from the guard's
// own bookkeeping (board exclusion, host fallback, recovery counters)
// without touching the data path, so it is safe to snapshot between
// force batches while a run is in flight.

// BoardHealth is the service state of one physical board.
type BoardHealth struct {
	// Shard is the board's shard (board-system) index.
	Shard int `json:"shard"`
	// Board is the 0-based board index within the shard.
	Board int `json:"board"`
	// InService reports whether the guard still routes work to the
	// board (false once bisection has excluded it).
	InService bool `json:"in_service"`
}

// Health is a point-in-time snapshot of a GRAPE installation's serving
// state: shard and board inventory, exclusions, and the cumulative
// fault-handling counters behind them.
type Health struct {
	// Shards is the number K of board systems.
	Shards int `json:"shards"`
	// BoardsTotal and BoardsActive count physical boards across all
	// shards; Active < Total means the installation runs degraded.
	BoardsTotal  int `json:"boards_total"`
	BoardsActive int `json:"boards_active"`
	// HostOnly reports that the hardware has been abandoned entirely
	// and every batch falls back to the host engine.
	HostOnly bool `json:"host_only"`
	// Recovery is the cumulative fault-handling activity (summed across
	// shards for a cluster).
	Recovery Recovery `json:"recovery"`
	// Boards lists every board's service state, shard-major.
	Boards []BoardHealth `json:"boards"`
}

// Degraded reports whether the installation is running below its
// configured capacity: any board out of service, or full host fallback.
func (h Health) Degraded() bool {
	return h.HostOnly || h.BoardsActive < h.BoardsTotal
}

// Health snapshots the whole cluster: every shard's board inventory,
// shard-major, with recovery counters summed (HostOnly only when every
// shard has abandoned its hardware, matching Recovery). Call it between
// force batches; it must not race with Accumulate.
func (c *Cluster) Health() Health {
	rec := c.Recovery()
	h := Health{
		Shards:       len(c.shards),
		BoardsActive: c.ActiveBoards(),
		HostOnly:     rec.HostOnly,
		Recovery:     rec,
	}
	for k, sh := range c.shards {
		h.BoardsTotal += sh.sys.hw.boards
		for b := 0; b < sh.sys.hw.boards; b++ {
			h.Boards = append(h.Boards, BoardHealth{Shard: k, Board: b, InService: !sh.sys.BoardExcluded(b)})
		}
	}
	return h
}
