package main

import (
	"fmt"
	"math/rand"
	"time"

	"lrseluge/internal/experiment"
	"lrseluge/internal/image"
	"lrseluge/internal/obs"
	"lrseluge/internal/radio"
	"lrseluge/internal/scale"
	"lrseluge/internal/sim"
	"lrseluge/internal/topo"
	"lrseluge/internal/trace"
)

// figures are one job's simulated outputs. They depend on the job's seed
// alone, so two passes over one seed must produce equal figures whatever
// the host or the instrumentation does.
type figures struct {
	latencyS  float64 // simulated seconds until the last node completed
	txBytes   int64
	nodes     int
	completed int
	events    uint64 // engine events; zero where the entry point hides them
	// Transmissions by packet type; zero where the entry point hides them.
	dataPkts, snackPkts, advPkts int64
}

// jobResult is what one pass over one job seed produced.
type jobResult struct {
	fig figures
	// layer holds per-layer figures keyed by metric name. Time figures are
	// only filled on traced passes.
	layer map[string]float64
	// group names the protocol layer a grid-noise job exercises, so its
	// time can be reported per protocol.
	group string
	// hash is the disk5k transmission-trace hash (traced passes only).
	hash string
	// err is non-nil when the job failed or its output is wrong.
	err error
}

// workload is one benchmark input family driven through a public entry
// point of the simulator.
type workload interface {
	// setup generates the inputs of the given job seeds and returns any
	// per-layer figures measured while doing so.
	setup(seeds []int64) (map[string]float64, error)
	// job runs the k-th job on seed; traced installs the existing
	// instrumentation hooks and fills the per-layer time figures.
	job(k int, seed int64, traced bool) jobResult
}

// diskDegree is the target average degree of the disk5k topologies.
const diskDegree = 16

// disk runs scale.Run on random-disk networks with the large-run choices
// on (calendar queue, compact per-node RNG) and no loss.
type disk struct {
	nodes, imageKB int
	horizon        sim.Time // zero means scale's default
	reach          map[int64]int
}

func (w *disk) setup(seeds []int64) (map[string]float64, error) {
	w.reach = make(map[int64]int, len(seeds))
	builds := make([]float64, 0, len(seeds))
	for _, seed := range seeds {
		start := time.Now()
		g, err := topo.Disk(w.nodes, diskDegree, seed)
		builds = append(builds, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		w.reach[seed] = reachable(g)
	}
	return map[string]float64{"topo.build_s": median(builds)}, nil
}

// reachable counts the nodes reachable from node 0, which is every node
// the dissemination can possibly complete.
func reachable(g *topo.Graph) int {
	seen := make([]bool, g.NumNodes())
	seen[0] = true
	stack := []int{0}
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range g.Neighbors(cur) {
			if !seen[l.To] {
				seen[l.To] = true
				count++
				stack = append(stack, l.To)
			}
		}
	}
	return count
}

func (w *disk) job(_ int, seed int64, traced bool) jobResult {
	want, ok := w.reach[seed]
	if !ok {
		return jobResult{err: fmt.Errorf("no topology generated for seed %d", seed)}
	}
	cfg := scale.Config{
		Nodes:        w.nodes,
		TargetDegree: diskDegree,
		ImageKB:      w.imageKB,
		Seed:         seed,
		Queue:        sim.CalendarQueue,
		CompactRNG:   true,
		Horizon:      w.horizon,
	}
	var timers *obs.Timers
	if traced {
		timers = obs.NewTimers()
		cfg.Obs = timers
		cfg.TraceHash = true
	}
	rep, err := scale.Run(cfg)
	if err != nil {
		return jobResult{err: err}
	}
	r := jobResult{
		fig: figures{
			latencyS:  rep.LatencySec,
			txBytes:   rep.TotalBytes,
			nodes:     rep.Nodes,
			completed: rep.Completed,
			events:    rep.Events,
		},
		hash: rep.TraceHash,
	}
	if rep.Completed < want {
		r.err = fmt.Errorf("%d of the %d nodes reachable from node 0 left incomplete", want-rep.Completed, want)
	}
	if traced {
		r.layer = obsLayers(timers, rep.Events)
	}
	return r
}

// obsLayers turns one run's phase timers into per-layer figures.
func obsLayers(t *obs.Timers, events uint64) map[string]float64 {
	secs := func(ps ...obs.Phase) float64 {
		var ns int64
		for _, p := range ps {
			ns += t.NS(p)
		}
		return float64(ns) / 1e9
	}
	calls := func(p obs.Phase) float64 { return float64(t.Calls(p)) }
	return map[string]float64{
		"sim.events":              float64(events),
		"sim.pops_per_event":      ratio(calls(obs.PhaseQueuePop), float64(events)),
		"sim.queue_s":             secs(obs.PhaseQueuePop, obs.PhaseQueuePush),
		"sim.dispatch_s":          secs(obs.PhaseDispatch),
		"radio.deliver_s":         secs(obs.PhaseRadioDeliver),
		"radio.deliver_calls":     calls(obs.PhaseRadioDeliver),
		"crypt.hash_verify_s":     secs(obs.PhaseHashVerify),
		"crypt.hash_verify_calls": calls(obs.PhaseHashVerify),
		"crypt.sig_verify_s":      secs(obs.PhaseSigVerify),
		"crypt.sig_verify_calls":  calls(obs.PhaseSigVerify),
		"erasure.rs_decode_s":     secs(obs.PhaseRSDecode),
		"erasure.rs_decode_calls": calls(obs.PhaseRSDecode),
		"erasure.rs_encode_s":     secs(obs.PhaseRSEncode),
		"erasure.rs_encode_calls": calls(obs.PhaseRSEncode),
		"trickle.s":               secs(obs.PhaseTrickle),
		"trickle.calls":           calls(obs.PhaseTrickle),
	}
}

// grid runs experiment.Run on a tight grid under bursty Gilbert-Elliott
// noise, alternating LR-Seluge and Seluge jobs.
type grid struct {
	side, imageKB int
	graph         *topo.Graph
}

func (w *grid) setup([]int64) (map[string]float64, error) {
	g, err := topo.Grid(w.side, w.side, topo.Tight)
	if err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("%dx%d tight grid is not connected", w.side, w.side)
	}
	w.graph = g
	return nil, nil
}

func (w *grid) job(k int, seed int64, traced bool) jobResult {
	proto, group := experiment.LRSeluge, "core"
	if k%2 == 1 {
		proto, group = experiment.Seluge, "seluge"
	}
	s := experiment.Scenario{
		Protocol:    proto,
		Graph:       w.graph,
		ImageSize:   w.imageKB * 1024,
		Seed:        seed,
		LossFactory: func() radio.LossModel { return radio.HeavyNoise() },
	}
	var (
		sink *countSink
		loss *timedLoss
	)
	if traced {
		sink = &countSink{}
		s.Trace = sink
		s.LossFactory = func() radio.LossModel {
			loss = &timedLoss{inner: radio.HeavyNoise()}
			return loss
		}
	}
	res, err := experiment.Run(s)
	if err != nil {
		return jobResult{err: err}
	}
	r := jobResult{fig: resultFigures(res), group: group, layer: resultLayers(res)}
	if !res.ImagesOK {
		r.err = fmt.Errorf("%v: a node holds a wrong or incomplete image", proto)
	}
	if traced {
		r.layer["radio.loss_s"] = float64(loss.ns) / 1e9
		r.layer["radio.loss_calls"] = float64(loss.calls)
		r.layer["radio.channel_drops"] = float64(sink.drops[trace.DropChannel])
		r.layer["crypt.auth_drops"] = float64(sink.drops[trace.DropAuth])
		r.layer["dissem.dup_frac"] = ratio(float64(sink.drops[trace.DropDuplicate]), float64(sink.rx))
		if proto == experiment.LRSeluge {
			r.layer["erasure.decodable_units"] = float64(sink.decodable)
		}
	}
	return r
}

func resultFigures(res experiment.Result) figures {
	return figures{
		latencyS:  res.Latency.Seconds(),
		txBytes:   res.TotalBytes,
		nodes:     res.Nodes,
		completed: res.Completed,
		dataPkts:  res.DataPkts,
		snackPkts: res.SnackPkts,
		advPkts:   res.AdvPkts,
	}
}

// resultLayers are the per-layer counts an experiment.Result carries.
func resultLayers(res experiment.Result) map[string]float64 {
	return map[string]float64{
		"crypt.sig_verify_calls": float64(res.SigVerifications),
		"dissem.data_pkts":       float64(res.DataPkts),
		"dissem.snack_pkts":      float64(res.SnackPkts),
		"dissem.adv_pkts":        float64(res.AdvPkts),
	}
}

// countSink is a trace.Sink that keeps only the counts the benchmark
// reports.
type countSink struct {
	rx, decodable uint64
	drops         [8]uint64 // indexed by trace.DropReason
}

func (c *countSink) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindRx:
		c.rx++
	case trace.KindUnitDecodable:
		c.decodable++
	case trace.KindDrop:
		if int(e.Reason) < len(c.drops) {
			c.drops[e.Reason]++
		}
	}
}

func (c *countSink) Flush() error { return nil }

// lossStride times one Drop call in lossStride and scales the sample, so
// the clock reads cost a fraction of the ~100 ns calls they measure. Power
// of two.
const lossStride = 16

// timedLoss wraps a loss model, counting every Drop call and timing a
// sample of them.
type timedLoss struct {
	inner radio.LossModel
	calls uint64
	ns    int64
}

// Drop implements radio.LossModel.
//
//lrlint:effects(wallclock) benchmark instrumentation: the clock read is the measurement and never reaches the simulation
func (l *timedLoss) Drop(from, to int, linkQuality float64, now sim.Time, rng *rand.Rand) bool {
	l.calls++
	if l.calls%lossStride != 1 {
		return l.inner.Drop(from, to, linkQuality, now, rng)
	}
	start := time.Now()
	drop := l.inner.Drop(from, to, linkQuality, now, rng)
	l.ns += int64(time.Since(start)) * lossStride
	return drop
}

// attack runs experiment.AttackResilience on a one-hop neighbourhood: an
// injection run, two signature floods and two denial-of-receipt runs.
type attack struct {
	receivers, imageKB int
	params             image.Params
}

// attackLoss is the attack-dense Bernoulli loss probability.
const attackLoss = 0.1

func (w *attack) setup([]int64) (map[string]float64, error) { return nil, nil }

func (w *attack) job(_ int, seed int64, _ bool) jobResult {
	rep, err := experiment.AttackResilience(w.params, w.imageKB*1024, w.receivers, attackLoss, seed)
	if err != nil {
		return jobResult{err: err}
	}
	runs := []experiment.Result{rep.Injection, rep.SigFlood, rep.SigFloodStrong}
	r := jobResult{fig: resultFigures(rep.Injection), layer: resultLayers(rep.Injection)}
	var channel, puzzle, auth, sigs int64
	for i, res := range runs {
		channel += res.ChannelLosses
		puzzle += res.PuzzleRejects
		auth += res.AuthDrops
		sigs += res.SigVerifications
		switch {
		case r.err != nil:
		case !res.ImagesOK:
			r.err = fmt.Errorf("attack run %d: a node holds a wrong or incomplete image", i)
		case res.ForgedAccepted > 0:
			r.err = fmt.Errorf("attack run %d: %d forged packets accepted", i, res.ForgedAccepted)
		}
	}
	if r.err == nil && rep.DoRVictimTxDefense >= rep.DoRVictimTxNoDefense {
		r.err = fmt.Errorf("denial-of-receipt defence did not cut victim transmissions (%d with, %d without)",
			rep.DoRVictimTxDefense, rep.DoRVictimTxNoDefense)
	}
	r.layer["radio.channel_drops"] = float64(channel)
	r.layer["crypt.puzzle_rejects"] = float64(puzzle)
	r.layer["crypt.auth_drops"] = float64(auth)
	r.layer["crypt.sig_verify_calls"] = float64(sigs)
	// The weak flood runs the same seed with every forgery stopped by the
	// puzzle, so its verifications are the legitimate baseline.
	r.layer["crypt.forged_sig_verifications"] = float64(rep.SigFloodStrong.SigVerifications - rep.SigFlood.SigVerifications)
	r.layer["dissem.dor_victim_tx_defense"] = float64(rep.DoRVictimTxDefense)
	r.layer["dissem.dor_victim_tx_nodefense"] = float64(rep.DoRVictimTxNoDefense)
	return r
}
