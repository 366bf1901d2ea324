package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"time"

	"nous"
	"nous/internal/plan"
	"nous/internal/trends"
)

var workloads = map[string]func(*run){
	"construct": runConstruct,
	"live":      runLive,
}

// runConstruct integrates a generated corpus as fast as IngestAll takes it,
// in chunks, on a fresh installation per round; rounds repeat until the run
// time is used. Each chunk is submitted once the replica has applied the
// previous one, so freshness is a chunk's own latency rather than a backlog.
// A closed loop of questions follows on the last round's graph.
func runConstruct(r *run) {
	in := genInputs(r.seed, constructBase, constructFeed)
	var st setupTimes
	fr := &freshness{}
	var rates []float64
	var ingest samples
	var d *deployment
	var busy time.Duration // the last round's IngestAll time
	start := time.Now()
	for round := 0; round < setupRepeats || time.Since(start) < time.Duration(r.seconds)*time.Second; round++ {
		if d != nil {
			d.close()
		}
		d = st.deployTimed(r, in.world, in.base, false)
		fr.watch(d)
		busy = 0
		for i := 0; i < len(in.feed); i += constructChunk {
			chunk := in.feed[i:min(i+constructChunk, len(in.feed))]
			t0 := time.Now()
			d.leader.IngestAll(chunk)
			t1 := time.Now()
			busy += t1.Sub(t0)
			ingest = append(ingest, t1.Sub(t0)/time.Duration(len(chunk)))
			for range chunk {
				fr.observe(t0, t1)
			}
			r.check("replica convergence", waitConverged(d, time.Minute))
		}
		fr.stop()
		rates = append(rates, float64(len(in.feed))/busy.Seconds())
		r.count(len(in.feed), 0)
	}
	st.report(r)
	fr.report(r)
	r.setE2E("articles_per_s", "articles/s", medianFloat(rates))
	fmt.Fprintf(os.Stderr, "rounds: %d, articles/s %.1f, set-up s %.3f\n", len(rates), rates, secs(st.setup.sum())/float64(len(st.setup)))

	// The first questions a user sends the freshly built graph, over the API.
	runtime.GC()
	lat, errs := httpAsks(r, d, in.mix, probeAsks, nil)
	r.count(probeAsks, errs)
	reportAsk(r, lat)
	ingested := append(append([]nous.Article(nil), in.base...), in.feed...)
	checkState(r, in, d, ingested)
	reportHeap(r, d)
	checkAnswers(r, d.leader, in.mix[:probeAsks])
	if r.traced {
		r.setLayer("stream.ms_per_article", "ms", millis(ingest.mean()))
		reportCacheRatios(r, d.leader.PlanStats(), d.leader.QueryStats())
		traceLayers(r, in, d, ingested, firstOfEachKind(in.mix, 20, nil), d.ingest+busy)
	}
	d.close()
}

// runLive feeds articles to the leader on a fixed schedule while one client
// asks questions over HTTP, as fast as answers come back, alternating
// between leader and replica, until the feed ends. After the feed the two
// nodes must hold the same facts and give the same answers; the leader's
// data directory must recover them.
func runLive(r *run) {
	n := liveRate * r.seconds
	in := genInputs(r.seed, liveBase, n)
	var st setupTimes
	d := st.deployRepeated(r, in.world, in.base, true)
	st.report(r)

	fr := &freshness{}
	fr.watch(d)
	runtime.GC()
	var wg sync.WaitGroup
	var ingest, lat samples
	feedDone := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(feedDone)
		ingest = openFeed(r, d, in.feed, n, liveRate, fr)
	}()
	go func() {
		defer wg.Done()
		// How many questions the loop gets through depends on the
		// machine, so they are not counted as attempted operations; a
		// failed one fails the run instead.
		lat, _ = httpAsks(r, d, in.mix, 0, feedDone)
	}()
	wg.Wait()
	fr.stop()
	fr.report(r)
	reportAsk(r, lat)
	reportServiceRate(r, ingest)
	r.check("replica convergence", waitConverged(d, time.Minute))

	checkState(r, in, d, append(append([]nous.Article(nil), in.base...), in.feed...))
	compareNodes(r, d, firstOfEachKind(in.mix, 3, knownDivergent))
	reportHeap(r, d)
	if r.traced {
		r.setLayer("stream.ms_per_article", "ms", millis(ingest.mean()))
		reportCacheRatios(r, d.leader.PlanStats(), d.leader.QueryStats())
		traceLayers(r, in, d, append(append([]nous.Article(nil), in.base...), in.feed...), firstOfEachKind(in.mix, 20, nil), d.ingest+ingest.sum())
	}
	checkRecovery(r, d, in.world)
	d.close()
	faultScenario(r)
}

// freshness times articles from when they were due until their write is
// visible on the leader (Ingest returned) and on the replica (its applied
// epoch covers the leader's epoch after the write).
type freshness struct {
	d       *deployment
	ch      chan pendingWrite
	done    chan struct{}
	leader  samples
	replica samples
	lag     samples // replica-visible minus leader-visible
}

type pendingWrite struct {
	due, visible time.Time
	epoch        uint64
}

// watch starts following writes to d's leader.
func (f *freshness) watch(d *deployment) {
	f.d = d
	// Sized past any run's write count, so the writer never waits on the
	// watcher and the feed's schedule holds.
	f.ch = make(chan pendingWrite, 1<<16)
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		for w := range f.ch {
			deadline := time.Now().Add(time.Minute)
			for d.applied() < w.epoch && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			now := time.Now()
			f.replica = append(f.replica, now.Sub(w.due))
			f.lag = append(f.lag, now.Sub(w.visible))
		}
	}()
}

// observe records one article, due at due and visible on the leader at
// visible; call it right after the write returns.
func (f *freshness) observe(due, visible time.Time) {
	f.leader = append(f.leader, visible.Sub(due))
	f.ch <- pendingWrite{due: due, visible: visible, epoch: f.d.epoch()}
}

// stop waits until the replica has caught up with every observed write.
func (f *freshness) stop() {
	close(f.ch)
	<-f.done
}

// report logs the freshness medians; the traced run also reports them
// with the replication layer's figures. They are not end-to-end metrics:
// on live, where they contend with the question loop, they moved by more
// than any usable bound between runs of identical code (see README.md).
func (f *freshness) report(r *run) {
	fmt.Fprintf(os.Stderr, "freshness: leader median %.3f ms, replica median %.3f ms\n",
		millis(f.leader.median()), millis(f.replica.median()))
	if r.traced {
		r.setLayer("stream.fresh_leader_ms", "ms", millis(f.leader.median()))
		r.setLayer("repl.fresh_replica_ms", "ms", millis(f.replica.median()))
		r.setLayer("repl.apply_lag_ms", "ms", millis(f.lag.median()))
		r.setLayer("repl.reconnects", "count", float64(f.d.replica.Follower().Status().Reconnects))
	}
}

// openFeed ingests the first n articles on the leader, article i due at
// start + i/rate whatever the previous one cost. It returns each Ingest
// call's duration and reports how late the feed ran.
func openFeed(r *run, d *deployment, arts []nous.Article, n, rate int, fr *freshness) samples {
	period := time.Second / time.Duration(rate)
	start := time.Now()
	var took, late samples
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t0 := time.Now()
		d.leader.Ingest(arts[i])
		t1 := time.Now()
		late = append(late, t0.Sub(due))
		took = append(took, t1.Sub(t0))
		fr.observe(due, t1)
	}
	r.count(n, 0)
	fmt.Fprintf(os.Stderr, "feed: %d articles at %d/s, late median %.2f ms, max %.2f ms\n",
		n, rate, millis(late.median()), millis(late.quantile(1)))
	return took
}

// checkAnswers asks every distinct question of qs twice in process, at an
// unchanged epoch, and checks the answers: the repeat must be identical, the
// first must agree with the reference computations, and where the
// plan-result cache may serve the question (diff, bounded trending) the
// answer must equal the one the planner's executor computes for the same
// plan without the cache.
func checkAnswers(r *run, p *nous.Pipeline, qs []question) {
	log := newAnswerLog()
	direct := directExecutor(p, trends.NewDetector(nous.DefaultConfig().Trends))
	uncached := 0
	for _, q := range qs {
		if _, seen := log.digest[q.Text]; seen {
			continue
		}
		for i := 0; i < 2; i++ {
			a, err := p.Ask(q.Text)
			if err != nil {
				r.fail("ask %q: %v", q.Text, err)
				break
			}
			log.record(r, q, a)
		}
		c, err := compile(direct, q.Text)
		if err != nil {
			r.fail("compile %q: %v", q.Text, err)
			continue
		}
		if !plan.Cacheable(c.plan, true) {
			continue
		}
		uncached++
		a, err := c.answer(direct)
		if err != nil {
			r.fail("uncached run of %q: %v", q.Text, err)
			continue
		}
		if sum, err := digest(a); err != nil || sum != log.digest[q.Text] {
			r.fail("answer to %q differs from the uncached execution of its plan", q.Text)
		}
	}
	distinct := len(log.order)
	fmt.Fprintf(os.Stderr, "questions: %d asked, %d distinct, %.1f%% repeats; %d cacheable ones compared with uncached execution\n",
		len(qs), distinct, 100*float64(len(qs)-distinct)/float64(len(qs)), uncached)
	log.verify(r, p)
}

// httpAsks sends questions of mix over HTTP in a closed loop — one question
// in flight, the next sent as soon as the previous answer is read —
// alternating between the leader's and the replica's server. It stops after
// count questions, or, when done is non-nil, once done is closed. It
// returns each question's latency and how many failed; a failed ask also
// fails the run's correctness.
func httpAsks(r *run, d *deployment, mix []question, count int, done <-chan struct{}) (samples, int) {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	targets := []string{d.lsrv.URL, d.rsrv.URL}
	var lat samples
	errs := 0
	for i := 0; done != nil || i < count; i++ {
		if done != nil {
			select {
			case <-done:
				return lat, errs
			default:
			}
		}
		q := mix[i%len(mix)]
		t0 := time.Now()
		body, status, err := get(client, targets[i%2]+"/api/v1/ask?q="+url.QueryEscape(q.Text))
		lat = append(lat, time.Since(t0))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err != nil {
			errs++
			if errs <= 3 {
				r.fail("http ask %q: %v", q.Text, err)
			}
		}
	}
	return lat, errs
}

func get(c *http.Client, u string) ([]byte, int, error) {
	res, err := c.Get(u)
	if err != nil {
		return nil, 0, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return body, res.StatusCode, err
}

// reportServiceRate reports the articles a second one leader sustains at
// the median Ingest time of the run's open-loop feed.
func reportServiceRate(r *run, ingest samples) {
	r.setE2E("articles_per_s", "articles/s", 1/ingest.median().Seconds())
}

// reportAsk reports the median question latency. The 99th percentile goes
// to stderr only: with ten answers beyond it, it moved by more than any
// usable bound between runs of identical code (see README.md).
func reportAsk(r *run, lat samples) {
	r.setE2E("ask_p50_ms", "ms", millis(lat.median()))
	fmt.Fprintf(os.Stderr, "ask latency: %d answers, p50 %.3f ms, p99 %.3f ms\n",
		len(lat), millis(lat.median()), millis(lat.quantile(0.99)))
}

// reportHeap reports the live heap after a forced collection, with the
// installation still reachable.
func reportHeap(r *run, d *deployment) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.setE2E("heap_mib", "MiB", float64(ms.HeapAlloc)/(1<<20))
	runtime.KeepAlive(d)
}

// answerLog keeps the first answer to every distinct question and checks
// that repeats of it are identical.
type answerLog struct {
	first  map[string]nous.Answer
	digest map[string]uint64
	order  []question
}

func newAnswerLog() *answerLog {
	return &answerLog{first: map[string]nous.Answer{}, digest: map[string]uint64{}}
}

// digest is a hash of an answer's JSON encoding.
func digest(a nous.Answer) (uint64, error) {
	h := fnv.New64a()
	err := json.NewEncoder(h).Encode(a)
	return h.Sum64(), err
}

func (l *answerLog) record(r *run, q question, a nous.Answer) {
	sum, err := digest(a)
	if err != nil {
		r.fail("encoding answer to %q: %v", q.Text, err)
		return
	}
	prev, seen := l.digest[q.Text]
	if !seen {
		l.digest[q.Text] = sum
		l.first[q.Text] = a
		l.order = append(l.order, q)
		return
	}
	if prev != sum {
		r.fail("repeated question %q at an unchanged epoch gave a different answer", q.Text)
	}
}

// verify checks every distinct answer against the reference computations
// over one snapshot of p's facts.
func (l *answerLog) verify(r *run, p *nous.Pipeline) {
	ref := newReference(p.KG().AllFacts())
	minSupport := nous.DefaultConfig().Miner.MinSupport
	for _, q := range l.order {
		r.check(fmt.Sprintf("answer to %q", q.Text), ref.checkAnswer(q, l.first[q.Text], minSupport))
	}
}
