package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nous"
	"nous/internal/server"
)

// deployment is one NOUS installation: a durable leader serving the HTTP
// API on loopback, and an in-process replica following it over that API
// and serving the same API itself.
type deployment struct {
	dir     string
	leader  *nous.Pipeline
	lsrv    *httptest.Server
	replica *nous.Pipeline
	rsrv    *httptest.Server
	ready   time.Duration // nous.Follow until the replica had converged
	ingest  time.Duration // the leader's IngestAll of the base articles
}

var deployments atomic.Int64

// deploy stands an installation up from nothing: it opens an empty data
// directory, loads the curated KB, ingests base, optionally fits topics,
// checkpoints, starts the leader's server, and brings a replica up to the
// leader's epoch. Nothing in it waits on a program timer: the replica
// bootstraps from the checkpoint just taken, so it has converged as soon as
// nous.Follow returns.
func deploy(r *run, w *nous.World, base []nous.Article, withTopics bool) (*deployment, error) {
	d := &deployment{dir: filepath.Join(r.dir, fmt.Sprintf("leader-%d", deployments.Add(1)))}
	var err error
	if d.leader, err = nous.Open(d.dir, w.Ontology, nous.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := w.SeedKG(d.leader.KG()); err != nil {
		return nil, err
	}
	start := time.Now()
	d.leader.IngestAll(base)
	d.ingest = time.Since(start)
	if withTopics {
		d.leader.BuildTopics()
	}
	if err := d.leader.Checkpoint(); err != nil {
		return nil, err
	}
	// The leader re-checks its WAL tail every Poll while a replica is
	// caught up; the production 50 ms would dominate replica freshness.
	src := d.leader.WALSource()
	src.Poll = 2 * time.Millisecond
	d.lsrv = httptest.NewServer(server.New(d.leader))

	start = time.Now()
	if d.replica, err = nous.Follow(context.Background(), d.lsrv.URL, w.Ontology, nous.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := waitConverged(d, time.Minute); err != nil {
		return nil, err
	}
	d.ready = time.Since(start)
	if withTopics {
		d.replica.BuildTopics()
	}
	d.rsrv = httptest.NewServer(server.New(d.replica))
	return d, nil
}

// epoch is the leader's current mutation epoch.
func (d *deployment) epoch() uint64 { return d.leader.KG().Graph().Epoch() }

// applied is the replica's applied epoch.
func (d *deployment) applied() uint64 { return d.replica.Follower().Status().AppliedEpoch }

// waitConverged waits until the replica has applied the leader's epoch.
func waitConverged(d *deployment, limit time.Duration) error {
	return waitApplied(d.replica, d.epoch(), limit)
}

// waitApplied waits until the replica p has applied epoch target.
func waitApplied(p *nous.Pipeline, target uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for p.Follower().Status().AppliedEpoch < target {
		if time.Now().After(deadline) {
			st := p.Follower().Status()
			return fmt.Errorf("replica did not converge: applied %d, leader %d, last error %q", st.AppliedEpoch, target, st.LastError)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// stop shuts the replica, both servers and the leader down, keeping the
// data directory. The replica goes first: its WAL stream is a request the
// leader's server would otherwise wait for.
func (d *deployment) stop() {
	if d.replica != nil {
		d.replica.Close()
		d.replica = nil
	}
	for _, s := range []**httptest.Server{&d.rsrv, &d.lsrv} {
		if *s != nil {
			(*s).Close()
			*s = nil
		}
	}
	if d.leader != nil {
		d.leader.Close()
		d.leader = nil
	}
}

// close stops the installation and removes its data directory.
func (d *deployment) close() {
	d.stop()
	os.RemoveAll(d.dir)
}

// setupTimes collects set-up and replica-ready durations over a run.
type setupTimes struct{ setup, ready samples }

// deployTimed runs deploy and records how long it took, then brings
// readyProbes more replicas up against the new leader and down again, so
// replica_ready_s is a median over several follows per set-up.
func (st *setupTimes) deployTimed(r *run, w *nous.World, base []nous.Article, withTopics bool) *deployment {
	start := time.Now()
	d, err := deploy(r, w, base, withTopics)
	must(err)
	st.setup = append(st.setup, time.Since(start))
	st.ready = append(st.ready, d.ready)
	for i := 0; i < readyProbes; i++ {
		start := time.Now()
		p, err := nous.Follow(context.Background(), d.lsrv.URL, w.Ontology, nous.DefaultConfig())
		must(err)
		must(waitApplied(p, d.epoch(), time.Minute))
		st.ready = append(st.ready, time.Since(start))
		p.Close()
	}
	return d
}

// deployRepeated stands the installation up setupRepeats times, keeping
// the last, so setup_s is a median rather than one sample.
func (st *setupTimes) deployRepeated(r *run, w *nous.World, base []nous.Article, withTopics bool) *deployment {
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
		}
		d = st.deployTimed(r, w, base, withTopics)
	}
	return d
}

func (st *setupTimes) report(r *run) {
	r.setE2E("setup_s", "s", secs(st.setup.median()))
	r.setE2E("replica_ready_s", "s", secs(st.ready.median()))
}
