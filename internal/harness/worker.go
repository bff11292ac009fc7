package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"countnet/internal/harness/syncsrv"
	"countnet/internal/obs"
	"countnet/internal/stats"
)

// WorkerOptions configures one worker process (or in-process worker
// goroutine — the runner uses goroutines in unit tests and real
// processes everywhere else).
type WorkerOptions struct {
	// ID is the worker's identity at the sync server (e.g. "w0").
	ID string
	// SyncURL is the base URL of the syncsrv coordination server.
	SyncURL string
	// ObsEvery is the period of mid-phase "obs" snapshot lines
	// (default 50ms; negative disables periodic lines — the
	// end-of-phase snapshot is always sent).
	ObsEvery time.Duration
}

// DefaultObsEvery is the default mid-phase snapshot streaming period.
const DefaultObsEvery = 50 * time.Millisecond

// workerObs is the worker's own obs group: its draw traffic and
// latency, registered as group "worker" in the worker-local registry
// so every worker's contribution merges into one fleet group keyed by
// Origin.
type workerObs struct {
	draws  obs.PaddedCount
	values obs.PaddedCount
	phases obs.PaddedCount
	drawNs *obs.Hist
}

func newWorkerObs() *workerObs { return &workerObs{drawNs: obs.NewHist()} }

func (o *workerObs) GroupSnapshot() obs.GroupSnapshot {
	return obs.GroupSnapshot{
		Kind: "worker",
		Counters: []obs.Metric{
			{Name: "draws", Value: o.draws.Load()},
			{Name: "phases", Value: o.phases.Load()},
			{Name: "values", Value: o.values.Load()},
		},
		Hists: []obs.HistMetric{{Name: "draw_ns", Hist: o.drawNs.Snapshot()}},
	}
}

// RunWorker is the worker side of the harness protocol: register with
// the sync server, announce readiness, then execute one Command per
// line of in, writing one Message per event to out. It returns when an
// exit command arrives, when in closes, or when ctx is canceled. This
// is what `countbench -worker` runs.
func RunWorker(ctx context.Context, in io.Reader, out io.Writer, opt WorkerOptions) error {
	obsEvery := opt.ObsEvery
	if obsEvery == 0 {
		obsEvery = DefaultObsEvery
	}
	w := &worker{
		id:       opt.ID,
		client:   syncsrv.NewClient(opt.SyncURL),
		enc:      json.NewEncoder(out),
		reg:      obs.NewRegistry(),
		flight:   obs.NewFlightRecorder(obs.DefaultFlightSlots),
		wobs:     newWorkerObs(),
		obsEvery: obsEvery,
	}
	defer w.client.Close()
	w.reg.Register("worker", w.wobs)
	if opt.ID == "" {
		return w.fail(fmt.Errorf("harness: worker needs an id"))
	}
	if opt.SyncURL == "" {
		return w.fail(fmt.Errorf("harness: worker needs a sync server URL"))
	}
	if _, err := w.client.Register(opt.ID); err != nil {
		return w.fail(err)
	}
	w.send(Message{Op: "ready", Worker: w.id})

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var cmd Command
		if err := json.Unmarshal(sc.Bytes(), &cmd); err != nil {
			return w.fail(fmt.Errorf("harness: bad command line: %v", err))
		}
		switch cmd.Op {
		case "phase":
			if cmd.Phase == nil {
				return w.fail(fmt.Errorf("harness: phase command without spec"))
			}
			rec, died, err := w.runPhase(ctx, cmd.Phase)
			if err != nil {
				return w.fail(err)
			}
			if died {
				// Injected crash: report the point of death and freeze
				// until killed (process workers) or canceled
				// (in-process workers). No record, no end barrier —
				// from the coordination system's point of view this
				// worker just vanished mid-phase. The flight dump rides
				// the dying line: the forensics leave the process
				// before the SIGKILL lands.
				w.send(Message{Op: "dying", Worker: w.id, Flight: w.flight.Dump()})
				<-ctx.Done()
				return ctx.Err()
			}
			w.sendObs(cmd.Phase.Index)
			w.send(Message{Op: "record", Worker: w.id, Record: rec})
		case "exit":
			w.send(Message{Op: "bye", Worker: w.id, Flight: w.flight.Dump()})
			return nil
		default:
			return w.fail(fmt.Errorf("harness: unknown command op %q", cmd.Op))
		}
	}
	if err := sc.Err(); err != nil {
		return w.fail(err)
	}
	return nil
}

type worker struct {
	id       string
	client   *syncsrv.Client
	enc      *json.Encoder
	reg      *obs.Registry
	flight   *obs.FlightRecorder
	wobs     *workerObs
	obsEvery time.Duration
	lastObs  time.Time
}

// sendObs ships the worker's current obs snapshot, tagged with its
// identity, as one "obs" protocol line for the given phase.
func (w *worker) sendObs(phase int) {
	s := w.reg.Snapshot()
	s.TagOrigin(w.id)
	w.send(Message{Op: "obs", Worker: w.id, Snapshot: &s, PhaseIndex: phase})
	w.lastObs = time.Now()
}

// runPhase executes one phase: start barrier, draw loop, end barrier.
// died reports that the injected crash point was reached (the end
// barrier was not taken and rec is nil).
func (w *worker) runPhase(ctx context.Context, p *PhaseSpec) (rec *PhaseRecord, died bool, err error) {
	if p.Block < 1 {
		p.Block = 1
	}
	w.flight.Record(obs.FlightPhaseStart, int64(p.Index), int64(p.Parties))
	startGen, err := w.client.Barrier(p.startState(), p.Parties)
	if err != nil {
		return nil, false, fmt.Errorf("harness: %s start barrier: %w", p.Name, err)
	}
	w.flight.Record(obs.FlightBarrierArrive, int64(p.Index), startGen)

	var (
		values   []int64
		latNs    []float64
		ops      int
		start    = time.Now()
		deadline = start.Add(p.Duration)
	)
	for ctx.Err() == nil {
		if p.TargetOps > 0 {
			if ops >= p.TargetOps {
				break
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		vals, err := w.client.Draw(w.id, p.Block)
		if err != nil {
			return nil, false, fmt.Errorf("harness: %s draw: %w", p.Name, err)
		}
		drawNs := time.Since(t0).Nanoseconds()
		latNs = append(latNs, float64(drawNs))
		values = append(values, vals...)
		ops++
		w.flight.Record(obs.FlightBlockLease, vals[0], int64(len(vals)))
		w.wobs.draws.Inc()
		w.wobs.values.Add(int64(len(vals)))
		w.wobs.drawNs.Observe(drawNs)
		if w.obsEvery > 0 && time.Since(w.lastObs) >= w.obsEvery {
			w.sendObs(p.Index)
		}
		if p.DieAfterOps > 0 && ops >= p.DieAfterOps {
			w.flight.Record(obs.FlightPhaseEnd, int64(p.Index), int64(ops))
			return nil, true, nil
		}
		if p.Throttle > 0 {
			select {
			case <-time.After(p.Throttle):
			case <-ctx.Done():
			}
		}
	}
	elapsed := time.Since(start)
	w.flight.Record(obs.FlightPhaseEnd, int64(p.Index), int64(ops))
	w.wobs.phases.Inc()

	endGen, err := w.client.Barrier(p.endState(), p.Parties)
	if err != nil {
		return nil, false, fmt.Errorf("harness: %s end barrier: %w", p.Name, err)
	}
	w.flight.Record(obs.FlightBarrierArrive, int64(p.Index), endGen)

	s := stats.Summarize(latNs)
	return &PhaseRecord{
		Worker:      w.id,
		Phase:       p.Name,
		Index:       p.Index,
		Block:       p.Block,
		Throttle:    p.Throttle,
		Ops:         ops,
		ValuesDrawn: len(values),
		ElapsedNs:   elapsed.Nanoseconds(),
		StartGen:    startGen,
		EndGen:      endGen,
		MeanNs:      s.Mean,
		P50Ns:       s.P50,
		P90Ns:       s.P90,
		P99Ns:       s.P99,
		MaxNs:       s.Max,
		Values:      values,
	}, false, nil
}

// send writes one protocol line; encoding errors surface on the next
// send or at exit (a dead runner pipe ends the worker anyway).
func (w *worker) send(m Message) { w.enc.Encode(m) } //nolint:errcheck

// fail reports the error on the protocol stream (so the runner sees
// it) and returns it (so the process exits nonzero).
func (w *worker) fail(err error) error {
	w.send(Message{Op: "error", Worker: w.id, Err: err.Error()})
	return err
}
