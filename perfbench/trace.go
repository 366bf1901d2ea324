package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nous"
	"nous/internal/analytics"
	"nous/internal/core"
	"nous/internal/disambig"
	"nous/internal/extract"
	"nous/internal/fgm"
	"nous/internal/linkpred"
	"nous/internal/ner"
	"nous/internal/nlp"
	"nous/internal/ontology"
	"nous/internal/pathsearch"
	"nous/internal/persist"
	"nous/internal/plan"
	"nous/internal/predmap"
	"nous/internal/qa"
	"nous/internal/repl"
	"nous/internal/trends"
	"nous/internal/trust"
)

// spans records the benchmark's spans around calls into each layer, kept
// in memory and summarised per name when the run ends.
type spans struct {
	by map[string]samples
}

func newSpans() *spans { return &spans{by: map[string]samples{}} }

// end closes the span name opened at start.
func (s *spans) end(name string, start time.Time) { s.by[name] = append(s.by[name], time.Since(start)) }

// dump writes each span's count, total and median to stderr.
func (s *spans) dump() {
	names := make([]string, 0, len(s.by))
	for n := range s.by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(os.Stderr, "spans:")
	for _, n := range names {
		v := s.by[n]
		fmt.Fprintf(os.Stderr, "  %-28s n=%-6d total %10.2f ms  median %9.1f us\n", n, len(v), millis(v.sum()), micros(v.median()))
	}
}

// replayIngest is what the stage-by-stage ingest replay produced.
type replayIngest struct {
	curated  []core.Fact // the curated substrate, in load order
	accepted []core.Fact // extracted facts in the order they were added
	batches  [][]core.Triple
	raw      int
	mapped   int
}

// traceLayers reports every per-layer metric from replays of the run's own
// inputs: the ingested articles, stage by stage, through each ingest layer's
// exported entry points; the questions through parse, lower, optimize and
// run; and the durable store and replication endpoints of d.
//
// ingestTime is how long the leader took to ingest the same articles; the
// run logs how much of it the ingest layers' spans account for.
func traceLayers(r *run, in *inputs, d *deployment, ingested []nous.Article, qs []question, ingestTime time.Duration) {
	s := r.spans
	cfg := nous.DefaultConfig()
	replayStart := time.Now()
	rep := replayStages(r, in.world, ingested)
	r.setLayer("extract.us_per_article", "us", micros(s.by["extract"].mean()))
	r.setLayer("extract.triples", "count", float64(rep.raw))
	r.setLayer("predmap.us_per_triple", "us", micros(s.by["predmap"].mean()))
	r.setLayer("predmap.mapped_ratio", "ratio", ratio(float64(rep.mapped), float64(rep.raw)))
	r.setLayer("disambig.us_per_link", "us", micros(s.by["disambig"].mean()))
	r.setLayer("linkpred.us_per_score", "us", micros(s.by["linkpred.score"].mean()))
	r.setLayer("linkpred.us_per_update", "us", micros(s.by["linkpred.update"].mean()))
	r.setLayer("trust.recompute_ms", "ms", millis(s.by["trust.recompute"].mean()))
	r.setLayer("core.us_per_fact", "us", micros(s.by["core.addfacts"].sum())/float64(len(rep.accepted)))
	st := d.leader.Stats()
	r.setLayer("stream.accept_ratio", "ratio", ratio(float64(st.Accepted), float64(st.Mapped)))
	if st.Accepted != len(rep.accepted) {
		fmt.Fprintf(os.Stderr, "trace: replay accepted %d facts, the leader %d\n", len(rep.accepted), st.Accepted)
	}

	// The miner and trend detector see the facts in the order the leader's
	// subscriptions did: the curated substrate, then the stream.
	all := append(append([]core.Fact(nil), rep.curated...), rep.accepted...)
	m := fgm.NewMiner(cfg.Miner)
	for _, f := range all {
		e := minerEdge(f)
		t := time.Now()
		m.Add(e)
		s.end("fgm.add", t)
	}
	r.setLayer("fgm.us_per_edge", "us", micros(s.by["fgm.add"].mean()))
	for i := 0; i < 3; i++ {
		t := time.Now()
		m.ClosedPatterns()
		s.end("fgm.patterns", t)
	}
	r.setLayer("fgm.patterns_ms", "ms", millis(s.by["fgm.patterns"].median()))
	det := trends.NewDetector(cfg.Trends)
	for _, f := range all {
		t := time.Now()
		det.OnEvent(core.Event{Kind: core.FactAdded, Fact: f})
		s.end("trends.event", t)
	}
	r.setLayer("trends.us_per_event", "us", micros(s.by["trends.event"].mean()))
	replay := time.Since(replayStart) - s.by["fgm.patterns"].sum()
	var covered time.Duration
	for _, n := range []string{"extract", "predmap", "disambig", "linkpred.score", "linkpred.update",
		"trust.recompute", "core.addfacts", "fgm.add", "trends.event"} {
		covered += s.by[n].sum()
	}
	fmt.Fprintf(os.Stderr, "coverage: ingest layer spans %.0f ms, %.0f%% of the %.0f ms replay; the leader took %.0f ms for the same %d articles\n",
		millis(covered), 100*covered.Seconds()/replay.Seconds(), millis(replay), millis(ingestTime), len(ingested))

	// What a new pipeline over the final graph pays: model training and
	// the miner's seed batch.
	final := d.leader.KG().AllFacts()
	triples := make([]core.Triple, len(final))
	seed := make([]fgm.Edge, len(final))
	for i, f := range final {
		triples[i] = f.Triple
		seed[i] = minerEdge(f)
	}
	t := time.Now()
	linkpred.Train(triples, linkpred.DefaultConfig())
	s.end("linkpred.train", t)
	r.setLayer("linkpred.train_ms", "ms", millis(s.by["linkpred.train"].median()))
	t = time.Now()
	fgm.NewMiner(cfg.Miner).AddBatch(seed)
	s.end("fgm.seed", t)
	r.setLayer("fgm.seed_ms", "ms", millis(s.by["fgm.seed"].median()))

	traceQueries(r, in, d, qs, det)
	tracePersist(r, in.world, d, rep)
	traceRepl(r, in.world, d)
	s.dump()
}

// minerEdge is the edge the pipeline hands the miner for a fact; curated
// facts never leave its window.
func minerEdge(f core.Fact) fgm.Edge {
	ts := int64(math.MaxInt64)
	if !f.Curated {
		ts = f.Provenance.Time.Unix()
	}
	return fgm.Edge{
		Src: int64(f.Src), Dst: int64(f.Dst),
		SrcLabel: string(f.SubjectType), DstLabel: string(f.ObjectType),
		Label: f.Predicate, Time: ts,
	}
}

// replayStages rebuilds the leader's ingest path from its layers — the
// components built over an empty graph, as nous.Open builds them, then the
// curated KB loaded — and drives the articles through it in document order,
// one stage call at a time, on a graph with no subscribers.
func replayStages(r *run, w *nous.World, arts []nous.Article) *replayIngest {
	s := r.spans
	ont := w.Ontology
	kg := core.NewKG(ont)
	scfg := nous.DefaultConfig().Stream
	rec := ner.NewRecognizer()
	kg.ForEachAlias(func(alias, _ string, typ ontology.EntityType) { rec.AddGazetteer(alias, typ) })
	ext := extract.New(rec, ont)
	mapper := predmap.NewMapper(ont, predmap.DefaultConfig())
	mapper.AddDefaultSeeds()
	model := linkpred.Train(nil, linkpred.DefaultConfig())
	tracker := trust.NewTracker(ont, trust.DefaultConfig())
	linker := disambig.NewLinkerWith(kg, disambig.DefaultConfig(), analytics.New(kg))
	must(w.SeedKG(kg))
	rep := &replayIngest{curated: kg.AllFacts()}

	resolve := func(surface string, context []string) string {
		surface = strings.TrimSpace(surface)
		cands := kg.Candidates(surface)
		switch {
		case surface == "":
			return ""
		case len(cands) == 0:
			return surface
		case len(cands) == 1:
			return cands[0]
		}
		t := time.Now()
		res := linker.LinkOne(disambig.Mention{Surface: surface, Context: context})
		s.end("disambig", t)
		if res.Entity != "" {
			return res.Entity
		}
		return cands[0]
	}

	var learnBuf []extract.RawTriple
	for n, a := range arts {
		t := time.Now()
		raws := ext.Extract(extract.Document{ID: a.ID, Source: a.Source, Date: a.Date, Text: a.Text})
		s.end("extract", t)
		rep.raw += len(raws)
		learnBuf = append(learnBuf, raws...)
		var context []string
		for _, sent := range nlp.Process(a.Text) {
			context = append(context, nlp.ContentWords(sent)...)
		}
		sort.Strings(context)

		var batch []core.Triple
		pending := map[[3]string]bool{}
		for _, rt := range raws {
			t := time.Now()
			mapped, ok := mapper.Map(rt)
			s.end("predmap", t)
			if !ok {
				continue
			}
			rep.mapped++
			mapped.Subject = resolve(mapped.Subject, context)
			mapped.Object = resolve(mapped.Object, context)
			if mapped.Subject == "" || mapped.Object == "" || mapped.Subject == mapped.Object {
				continue
			}
			tracker.Observe(trust.Assertion{Source: mapped.Provenance.Source, Subject: mapped.Subject,
				Predicate: mapped.Predicate, Object: mapped.Object})
			t = time.Now()
			lp := model.Score(mapped.Subject, mapped.Predicate, mapped.Object)
			s.end("linkpred.score", t)
			score := scfg.BlendExtractor*mapped.Confidence + (1-scfg.BlendExtractor)*lp
			key := [3]string{mapped.Subject, mapped.Predicate, mapped.Object}
			if pending[key] || kg.HasFact(mapped.Subject, mapped.Predicate, mapped.Object) {
				t = time.Now()
				model.Update(mapped, 2)
				s.end("linkpred.update", t)
				continue
			}
			if score < scfg.ConfidenceThreshold {
				continue
			}
			mapped.Confidence = score
			norm, err := kg.NormalizeTriple(mapped)
			if err != nil {
				continue
			}
			kg.AddEntity(norm.Subject, norm.SubjectType)
			kg.AddEntity(norm.Object, norm.ObjectType)
			batch = append(batch, norm)
			pending[key] = true
			t = time.Now()
			model.Update(norm, 2)
			s.end("linkpred.update", t)
		}
		t = time.Now()
		ids, errs := kg.AddFacts(batch)
		s.end("core.addfacts", t)
		for i, id := range ids {
			if errs[i] == nil {
				f, _ := kg.Fact(id)
				rep.accepted = append(rep.accepted, f)
			}
		}
		rep.batches = append(rep.batches, batch)
		if (n+1)%scfg.LearnEvery == 0 {
			mapper.Learn(learnBuf, kg)
			learnBuf = learnBuf[:0]
			t = time.Now()
			tracker.Recompute()
			s.end("trust.recompute", t)
		}
	}
	return rep
}

// traceQueries times the query layers on the leader's final state: parse,
// lower, optimize and execute per question class, and the analytics, path
// search, temporal, topic and server layers called directly. Execution is
// the planner's executor running the optimized plan, as qa.Executor does on
// a plan-result cache miss; det is the trend detector replayed over the
// leader's facts, standing in for the leader's own.
func traceQueries(r *run, in *inputs, d *deployment, qs []question, det *trends.Detector) {
	s := r.spans
	p := d.leader
	kg := p.KG()
	ex := directExecutor(p, det)
	stats := &plan.GraphStats{KG: kg, TIndex: p.TemporalIndex(), TrendBucketSec: int64(det.Config().Bucket / time.Second)}
	for _, q := range qs {
		t := time.Now()
		pq, err := qa.ParseAt(q.Text, ex.Now())
		s.end("qa.parse", t)
		if err != nil {
			r.fail("parse %q: %v", q.Text, err)
			continue
		}
		t = time.Now()
		pl, err := qa.Lower(pq)
		s.end("plan.lower", t)
		if err != nil {
			r.fail("lower %q: %v", q.Text, err)
			continue
		}
		t = time.Now()
		opt := plan.Optimize(pl, stats)
		s.end("plan.optimize", t)
		t = time.Now()
		if _, err := ex.Run(opt.Plan); err != nil {
			r.fail("run %q: %v", q.Text, err)
		}
		s.end("plan.exec."+q.Kind, t)
	}
	r.setLayer("qa.us_per_parse", "us", micros(s.by["qa.parse"].mean()))
	r.setLayer("plan.us_per_lower", "us", micros(s.by["plan.lower"].mean()))
	r.setLayer("plan.us_per_optimize", "us", micros(s.by["plan.optimize"].mean()))
	for _, k := range kinds {
		r.setLayer("plan.exec_us."+k, "us", micros(s.by["plan.exec."+k].median()))
	}

	for i := 0; i < 3; i++ {
		ac := analytics.New(kg)
		t := time.Now()
		ac.PageRank()
		s.end("analytics.pagerank", t)
	}
	r.setLayer("analytics.pagerank_ms", "ms", millis(s.by["analytics.pagerank"].median()))

	searcher := pathsearch.New(kg.Graph(), p.Analytics().Topics())
	for _, q := range qs {
		if q.Kind != kRelationship {
			continue
		}
		src, ok1 := kg.Entity(q.Subject)
		dst, ok2 := kg.Entity(q.Object)
		if !ok1 || !ok2 {
			continue
		}
		t := time.Now()
		searcher.TopK(src, dst, pathsearch.Options{K: 3, MaxDepth: 4})
		s.end("pathsearch.explain", t)
	}
	r.setLayer("pathsearch.ms_per_explain", "ms", millis(s.by["pathsearch.explain"].mean()))

	for i := 0; i < 5; i++ {
		for _, y := range in.years {
			t := time.Now()
			p.RecentFacts(yearWindow(y), 10)
			s.end("temporal.window_scan", t)
		}
	}
	r.setLayer("temporal.us_per_window_scan", "us", micros(s.by["temporal.window_scan"].mean()))

	t := time.Now()
	p.BuildTopics()
	s.end("topics.build", t)
	r.setLayer("topics.build_ms", "ms", millis(s.by["topics.build"].median()))

	// Server overhead: the same question at the same epoch, answered over
	// HTTP and in process, both after a warming ask.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var overhead []float64
	for _, q := range qs {
		if q.Kind != kEntity && q.Kind != kFact {
			continue
		}
		u := d.lsrv.URL + "/api/v1/ask?q=" + url.QueryEscape(q.Text)
		p.Ask(q.Text)
		t0 := time.Now()
		p.Ask(q.Text)
		inproc := time.Since(t0)
		t0 = time.Now()
		get(client, u) // first request of a fresh connection pays the dial
		t0 = time.Now()
		if _, status, err := get(client, u); err != nil || status != http.StatusOK {
			r.fail("http ask %q: status %d, %v", q.Text, status, err)
		}
		overhead = append(overhead, micros(time.Since(t0)-inproc))
	}
	r.setLayer("server.us_overhead", "us", medianFloat(overhead))
}

// tracePersist replays the accepted batches back to back into an
// in-memory graph and into a durable store over a graph with no subscribers
// — the difference is the logging cost — then times a checkpoint of the
// leader and the recovery of the replayed store.
func tracePersist(r *run, w *nous.World, d *deployment, rep *replayIngest) {
	s := r.spans
	dir := filepath.Join(r.dir, "trace-store")
	opts := persist.DefaultOptions()
	opts.DisableAutoCheckpoint = true
	replay := func(kg *core.KG, span string) {
		must(w.SeedKG(kg))
		for _, b := range rep.batches {
			for _, tr := range b {
				kg.AddEntity(tr.Subject, tr.SubjectType)
				kg.AddEntity(tr.Object, tr.ObjectType)
			}
			t := time.Now()
			kg.AddFacts(b)
			s.end(span, t)
		}
	}
	replay(core.NewKG(w.Ontology), "core.addfacts.replay")
	kg := core.NewKG(w.Ontology)
	st, err := persist.Open(dir, kg.Graph(), opts)
	must(err)
	must(kg.Rebuild())
	replay(kg, "persist.addfacts")
	logged := len(rep.curated) + len(rep.accepted)
	n := float64(len(rep.accepted))
	r.setLayer("persist.us_per_fact_logged", "us", (micros(s.by["persist.addfacts"].sum())-micros(s.by["core.addfacts.replay"].sum()))/n)
	r.setLayer("persist.wal_bytes_per_fact", "bytes", float64(st.Stats().WALBytes)/float64(logged))
	must(st.Close())

	t := time.Now()
	must(d.leader.Checkpoint())
	s.end("persist.checkpoint", t)
	r.setLayer("persist.checkpoint_ms", "ms", millis(s.by["persist.checkpoint"].median()))

	t = time.Now()
	kg2 := core.NewKG(w.Ontology)
	st2, err := persist.Open(dir, kg2.Graph(), opts)
	must(err)
	must(kg2.Rebuild())
	s.end("persist.recover", t)
	st2.Close()
	r.setLayer("persist.recover_ms", "ms", millis(s.by["persist.recover"].median()))
}

// traceRepl times a replica's two set-up steps against the leader's
// current snapshot: the bootstrap (transfer, restore, index rebuild) and
// the pipeline built over the restored graph.
func traceRepl(r *run, w *nous.World, d *deployment) {
	s := r.spans
	kg := core.NewKG(w.Ontology)
	f := repl.NewFollower(d.lsrv.URL, kg)
	t := time.Now()
	must(f.Bootstrap(context.Background()))
	s.end("repl.bootstrap", t)
	t = time.Now()
	nous.NewPipeline(kg, nous.DefaultConfig())
	s.end("repl.pipeline", t)
	r.setLayer("repl.bootstrap_ms", "ms", millis(s.by["repl.bootstrap"].median()))
	r.setLayer("repl.pipeline_ms", "ms", millis(s.by["repl.pipeline"].median()))
}

// reportCacheRatios reports the plan-result cache's and the analytics
// memos' hit shares.
func reportCacheRatios(r *run, ps nous.PlanStats, qs nous.QueryStats) {
	if ps.Cache != nil {
		r.setLayer("plan.cache_hit_ratio", "ratio", ratio(float64(ps.Cache.Hits), float64(ps.Cache.Hits+ps.Cache.Misses)))
	} else {
		r.setLayer("plan.cache_hit_ratio", "ratio", 0)
	}
	r.setLayer("analytics.hit_ratio", "ratio", ratio(float64(qs.Hits), float64(qs.Hits+qs.Misses)))
}
