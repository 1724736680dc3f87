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
	// Shard is the board's shard (board-system) index; 0 for a
	// single-system installation.
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
	// Shards is the number of board systems (1 for a bare System, K for
	// a Cluster).
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

// boardHealth appends the per-board service states of one system,
// labelled with the given shard index.
func (s *System) boardHealth(shard int, out []BoardHealth) []BoardHealth {
	for b := 0; b < s.cfg.Boards; b++ {
		out = append(out, BoardHealth{Shard: shard, Board: b, InService: !s.BoardExcluded(b)})
	}
	return out
}

// Health snapshots an unguarded system's board inventory. Recovery is
// zero: without a guard there is no fault-handling activity to report.
func (s *System) Health() Health {
	return Health{
		Shards:       1,
		BoardsTotal:  s.cfg.Boards,
		BoardsActive: s.ActiveBoards(),
		Boards:       s.boardHealth(0, nil),
	}
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
		h.BoardsTotal += sh.sys.cfg.Boards
		h.Boards = sh.sys.boardHealth(k, h.Boards)
	}
	return h
}
