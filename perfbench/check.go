package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"nous"
	"nous/internal/core"
	"nous/internal/pathsearch"
	"nous/internal/persist"
	"nous/internal/plan"
	"nous/internal/qa"
	"nous/internal/temporal"
	"nous/internal/trends"
)

// The checkers below recompute expected answers from one snapshot of the
// graph's facts, apart from the program's query path, or test properties
// every answer must have. None compares against stored output.

// factKey identifies a fact by its logical triple.
func factKey(s, p, o string) string { return s + "\x1f" + p + "\x1f" + o }

// reference is one snapshot of a graph's facts, indexed for the checkers.
type reference struct {
	facts []core.Fact
	keys  map[string]bool
}

func newReference(facts []core.Fact) *reference {
	ref := &reference{facts: facts, keys: make(map[string]bool, len(facts))}
	for _, f := range facts {
		ref.keys[factKey(f.Subject, f.Predicate, f.Object)] = true
	}
	return ref
}

func (ref *reference) has(s, p, o string) bool { return ref.keys[factKey(s, p, o)] }

// directExecutor is the planner's executor over p's graph, temporal index,
// miner, link-prediction model, linker and analytics cache, with det as the
// trend detector — the executor qa.Executor runs a plan with when the
// plan-result cache misses, without that cache in front of it. Nothing
// exports p's own detector: on the cacheable path (bounded trending backfill)
// only its configuration is read, and the trace passes a detector replayed
// over the same facts.
func directExecutor(p *nous.Pipeline, det *trends.Detector) *plan.Executor {
	kg := p.KG()
	now := time.Unix(p.TemporalStats().MaxTimestamp, 0)
	return &plan.Executor{
		KG:        kg,
		Trends:    det,
		Miner:     p.Miner(),
		Searcher:  pathsearch.New(kg.Graph(), p.Analytics().Topics()),
		Model:     p.LinkPredictor(),
		Linker:    p.Linker(),
		Analytics: p.Analytics(),
		TIndex:    p.TemporalIndex(),
		Now:       func() time.Time { return now },
	}
}

// compiled is a question parsed, lowered and optimized as qa.Executor does
// before it executes a plan.
type compiled struct {
	query qa.Query
	plan  *plan.Plan // the lowered reference plan, the cache key's source
	opt   *plan.Plan // what the executor runs
}

func compile(ex *plan.Executor, text string) (compiled, error) {
	q, err := qa.ParseAt(text, ex.Now())
	if err != nil {
		return compiled{}, err
	}
	pl, err := qa.Lower(q)
	if err != nil {
		return compiled{}, err
	}
	stats := &plan.GraphStats{KG: ex.KG, TIndex: ex.TIndex, TrendBucketSec: int64(ex.Trends.Config().Bucket / time.Second)}
	return compiled{query: q, plan: pl, opt: plan.Optimize(pl, stats).Plan}, nil
}

// answer executes c's optimized plan and shapes the result as qa.Executor
// shapes an Answer.
func (c compiled) answer(ex *plan.Executor) (nous.Answer, error) {
	r, err := ex.Run(c.opt)
	if err != nil {
		return nous.Answer{}, err
	}
	return nous.Answer{Class: c.query.Class, Text: r.Text, Trends: r.Trends, Entity: r.Entity,
		Paths: r.Paths, Patterns: r.Patterns, Fact: r.Fact, Diff: r.Diff}, nil
}

// checkAnswer dispatches on the question's kind.
func (ref *reference) checkAnswer(q question, a nous.Answer, minSupport int) error {
	switch q.Kind {
	case kFact, kPredict:
		return ref.checkFact(q.Subject, q.Pred, q.Object, a.Fact)
	case kDiff:
		return ref.checkDiff(q.Subject, q.WindowA, q.WindowB, a.Diff)
	case kRelationship:
		return ref.checkPaths(q.Subject, q.Object, a.Paths)
	case kPatterns:
		return checkPatterns(a.Patterns, minSupport)
	case kEntity, kEntityWindow:
		return ref.checkEntity(q.Subject, q.WindowA, a.Entity)
	}
	return nil
}

// checkFact: a fact check says "known" exactly when the triple is stored.
func (ref *reference) checkFact(s, p, o string, a *qa.FactAnswer) error {
	if a == nil {
		return fmt.Errorf("no fact payload")
	}
	if want := ref.has(s, p, o); a.Known != want {
		return fmt.Errorf("(%s, %s, %s): known=%v, but stored=%v", s, p, o, a.Known, want)
	}
	return nil
}

// inScope reports whether f belongs to entity's fact set in window w, as a
// diff compares them: curated facts are always in scope, extracted facts
// when their timestamp is dated and inside w.
func inScope(f core.Fact, entity string, w nous.Window) bool {
	if f.Subject != entity && f.Object != entity {
		return false
	}
	if f.Curated {
		return true
	}
	ts := f.Provenance.Time.Unix()
	return ts > temporal.Timeless && w.Contains(ts)
}

// checkDiff: a diff returns exactly the set difference of the entity's two
// windowed fact sets, both ways, and counts their intersection.
func (ref *reference) checkDiff(entity string, wa, wb nous.Window, d *nous.DiffAnswer) error {
	if d == nil {
		return fmt.Errorf("no diff payload")
	}
	a, b := map[string]bool{}, map[string]bool{}
	for _, f := range ref.facts {
		k := factKey(f.Subject, f.Predicate, f.Object)
		if inScope(f, entity, wa) {
			a[k] = true
		}
		if inScope(f, entity, wb) {
			b[k] = true
		}
	}
	minus := func(x, y map[string]bool) map[string]bool {
		out := map[string]bool{}
		for k := range x {
			if !y[k] {
				out[k] = true
			}
		}
		return out
	}
	keysOf := func(fs []core.Fact) (map[string]bool, error) {
		out := map[string]bool{}
		for _, f := range fs {
			k := factKey(f.Subject, f.Predicate, f.Object)
			if out[k] {
				return nil, fmt.Errorf("fact %q listed twice", k)
			}
			out[k] = true
		}
		return out, nil
	}
	added, err := keysOf(d.Added)
	if err != nil {
		return err
	}
	removed, err := keysOf(d.Removed)
	if err != nil {
		return err
	}
	if want := minus(b, a); !reflect.DeepEqual(added, want) {
		return fmt.Errorf("%s: %d facts added, want %d", entity, len(added), len(want))
	}
	if want := minus(a, b); !reflect.DeepEqual(removed, want) {
		return fmt.Errorf("%s: %d facts removed, want %d", entity, len(removed), len(want))
	}
	if want := len(a) - len(minus(a, b)); d.Unchanged != want {
		return fmt.Errorf("%s: %d facts unchanged, want %d", entity, d.Unchanged, want)
	}
	return nil
}

// parseHop reads a rendered hop, "U -[p]-> V" or "U <-[p]- V", into the
// stored fact it traverses and the hop's far end.
func parseHop(h string) (from, to string, fact [3]string, err error) {
	if i := strings.Index(h, " -["); i >= 0 {
		if j := strings.Index(h[i:], "]-> "); j >= 0 {
			from, pred, to := h[:i], h[i+3:i+j], h[i+j+4:]
			return from, to, [3]string{from, pred, to}, nil
		}
	}
	if i := strings.Index(h, " <-["); i >= 0 {
		if j := strings.Index(h[i:], "]- "); j >= 0 {
			from, pred, to := h[:i], h[i+4:i+j], h[i+j+3:]
			return from, to, [3]string{to, pred, from}, nil
		}
	}
	return "", "", fact, fmt.Errorf("unreadable hop %q", h)
}

// checkPaths: every hop of every path is a stored fact, and each path runs
// from src to dst through consecutive hops.
func (ref *reference) checkPaths(src, dst string, paths []qa.ExplainedPath) error {
	for _, p := range paths {
		if len(p.Hops) == 0 {
			return fmt.Errorf("%s→%s: empty path", src, dst)
		}
		at := src
		for _, h := range p.Hops {
			from, to, f, err := parseHop(h)
			if err != nil {
				return err
			}
			if from != at {
				return fmt.Errorf("%s→%s: hop %q does not start at %q", src, dst, h, at)
			}
			if !ref.has(f[0], f[1], f[2]) {
				return fmt.Errorf("%s→%s: hop %q is not a stored fact", src, dst, h)
			}
			at = to
		}
		if at != dst {
			return fmt.Errorf("%s→%s: path ends at %q", src, dst, at)
		}
	}
	return nil
}

// checkPatterns: every returned pattern meets the support threshold.
func checkPatterns(ps []nous.Pattern, minSupport int) error {
	for _, p := range ps {
		if p.Support < minSupport {
			return fmt.Errorf("pattern %s has support %d below %d", p, p.Support, minSupport)
		}
	}
	return nil
}

// checkEntity: a summary lists only stored facts about the entity, within
// the question's window.
func (ref *reference) checkEntity(entity string, w nous.Window, e *qa.EntitySummary) error {
	if e == nil {
		return fmt.Errorf("%s: no entity payload", entity)
	}
	if e.Name != entity {
		return fmt.Errorf("asked about %q, got %q", entity, e.Name)
	}
	for _, f := range e.Facts {
		if !ref.has(f.Subject, f.Predicate, f.Object) {
			return fmt.Errorf("%s: summary fact (%s, %s, %s) is not stored", entity, f.Subject, f.Predicate, f.Object)
		}
		if !f.Curated && !inScope(f, entity, w) {
			return fmt.Errorf("%s: summary fact (%s, %s, %s) is outside the window", entity, f.Subject, f.Predicate, f.Object)
		}
	}
	return nil
}

// checkCurated: the graph's curated facts equal the curated KB as a set.
func checkCurated(facts []core.Fact, curated []core.Triple) error {
	want := map[string]bool{}
	for _, t := range curated {
		want[factKey(t.Subject, t.Predicate, t.Object)] = true
	}
	got := map[string]bool{}
	for _, f := range facts {
		if f.Curated {
			got[factKey(f.Subject, f.Predicate, f.Object)] = true
		}
	}
	for k := range want {
		if !got[k] {
			return fmt.Errorf("curated fact %q missing", strings.ReplaceAll(k, "\x1f", " "))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("curated fact %q is not in the curated KB", strings.ReplaceAll(k, "\x1f", " "))
		}
	}
	return nil
}

// checkProvenance: every extracted fact names an ingested article as its
// source document, dated at that article's date truncated to whole seconds.
func checkProvenance(facts []core.Fact, arts []nous.Article) error {
	byDoc := make(map[string]nous.Article, len(arts))
	for _, a := range arts {
		byDoc[a.Source+"\x1f"+a.ID] = a
	}
	for _, f := range facts {
		if f.Curated {
			continue
		}
		a, ok := byDoc[f.Provenance.Source+"\x1f"+f.Provenance.DocID]
		if !ok {
			return fmt.Errorf("fact (%s, %s, %s) cites %s/%s, which was not ingested",
				f.Subject, f.Predicate, f.Object, f.Provenance.Source, f.Provenance.DocID)
		}
		if want := a.Date.Truncate(time.Second); !f.Provenance.Time.Equal(want) {
			return fmt.Errorf("fact (%s, %s, %s) is dated %s, its article %s",
				f.Subject, f.Predicate, f.Object, f.Provenance.Time, want)
		}
	}
	return nil
}

// checkIndexed: the temporal index holds every fact, and nothing else.
func checkIndexed(facts []core.Fact, indexed []core.FactID) error {
	in := make(map[core.FactID]bool, len(indexed))
	for _, id := range indexed {
		in[id] = true
	}
	for _, f := range facts {
		if !in[f.ID] {
			return fmt.Errorf("fact %d (%s, %s, %s) is not in the temporal index", f.ID, f.Subject, f.Predicate, f.Object)
		}
	}
	if len(indexed) != len(facts) {
		return fmt.Errorf("temporal index holds %d edges for %d facts", len(indexed), len(facts))
	}
	return nil
}

// renderFacts renders a fact list as sorted text lines, times as UTC
// instants, so two graphs compare by content rather than representation.
func renderFacts(facts []core.Fact) []string {
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = strings.Join([]string{
			f.Subject, string(f.SubjectType), f.Predicate, f.Object, string(f.ObjectType),
			strconv.FormatFloat(f.Confidence, 'g', -1, 64), strconv.FormatBool(f.Curated),
			f.Provenance.Source, f.Provenance.DocID, f.Provenance.Sentence,
			f.Provenance.Time.UTC().Format(time.RFC3339Nano),
		}, "|")
	}
	sort.Strings(out)
	return out
}

// sameLines reports the first difference between two rendered fact lists.
func sameLines(a, b []string) error {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Errorf("line %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d facts vs %d", len(a), len(b))
	}
	return nil
}

// checkState runs the state checks every workload ends with: the curated
// substrate, the fact count, the temporal index, provenance, and the
// replica's fact list.
func checkState(r *run, in *inputs, d *deployment, ingested []nous.Article) {
	kg := d.leader.KG()
	facts := kg.AllFacts()
	r.check("curated facts", checkCurated(facts, in.world.Curated))
	curated := 0
	for _, f := range facts {
		if f.Curated {
			curated++
		}
	}
	if acc := d.leader.Stats().Accepted; len(facts) != curated+acc {
		r.fail("graph holds %d facts; %d curated + %d accepted", len(facts), curated, acc)
	}
	r.check("temporal index", checkIndexed(facts, d.leader.TemporalIndex().EdgesIn(temporal.All())))
	r.check("provenance", checkProvenance(facts, ingested))
	if d.replica.Follower().Status().AppliedEpoch != d.epoch() {
		r.fail("replica applied epoch %d, leader %d", d.applied(), d.epoch())
	}
	r.check("replica fact list", sameLines(renderFacts(facts), renderFacts(d.replica.KG().AllFacts())))
}

// checkRecovery stops the installation and reopens the leader's data
// directory: recovery must give back the leader's fact list.
func checkRecovery(r *run, d *deployment, w *nous.World) {
	want := renderFacts(d.leader.KG().AllFacts())
	d.stop()
	kg := core.NewKG(w.Ontology)
	st, err := persist.Open(d.dir, kg.Graph(), persist.DefaultOptions())
	if err != nil {
		r.fail("reopening the data directory: %v", err)
		return
	}
	defer st.Close()
	if err := kg.Rebuild(); err != nil {
		r.fail("rebuilding the recovered graph: %v", err)
		return
	}
	r.check("recovered fact list", sameLines(want, renderFacts(kg.AllFacts())))
}

// knownDivergent are the kinds whose answers can differ between leader and
// replica at the same epoch, so the seeded comparison leaves them out:
//
//   - predict: link prediction is trained on whatever the graph held when
//     the pipeline was built (fault one, covered by faultScenario);
//   - trending: the live trend detector counts only events its process
//     observed (fault two, covered by faultScenario);
//   - entity_window: a summary's weekly activity comes from that same
//     detector, so fault two shows through it for some entities;
//   - entity: importance is PageRank served up to analytics.Cache.MaxLag
//     epochs stale, so it depends on when each process last computed it.
//
// Whether the last two differ depends on the seed and on timing, so they
// cannot be counted as failed operations.
var knownDivergent = map[string]bool{kPredict: true, kTrending: true, kEntityWindow: true, kEntity: true}

// compareNodes asks each question of leader and replica over HTTP at the
// same epoch and counts every answer that differs as a failed operation.
func compareNodes(r *run, d *deployment, qs []question) int {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	mismatches := 0
	for _, q := range qs {
		a, errA := v1Data(client, d.lsrv.URL, q.Text)
		b, errB := v1Data(client, d.rsrv.URL, q.Text)
		switch {
		case errA != nil || errB != nil:
			mismatches++
			fmt.Fprintf(os.Stderr, "compare %q: leader %v, replica %v\n", q.Text, errA, errB)
		case !reflect.DeepEqual(a, b):
			mismatches++
			fmt.Fprintf(os.Stderr, "compare %q: leader and replica answers differ at %s\n", q.Text, firstDiff(a, b, "data"))
		}
	}
	r.count(len(qs), mismatches)
	return mismatches
}

// v1Data fetches /api/v1/ask and returns its data payload with every
// timestamp rewritten as a UTC instant.
func v1Data(c *http.Client, base, question string) (any, error) {
	body, status, err := get(c, base+"/api/v1/ask?q="+url.QueryEscape(question))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, body)
	}
	var env struct {
		Data  any `json:"data"`
		Error any `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	if env.Error != nil {
		return nil, fmt.Errorf("error %v", env.Error)
	}
	return instants(env.Data), nil
}

// instants rewrites RFC 3339 strings in a decoded JSON value as UTC.
func instants(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = instants(e)
		}
	case []any:
		for i, e := range x {
			x[i] = instants(e)
		}
	case string:
		if t, err := time.Parse(time.RFC3339Nano, x); err == nil {
			return t.UTC().Format(time.RFC3339Nano)
		}
	}
	return v
}

// firstDiff describes where two decoded JSON values first differ.
func firstDiff(a, b any, path string) string {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok {
			break
		}
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !reflect.DeepEqual(x[k], y[k]) {
				return firstDiff(x[k], y[k], path+"."+k)
			}
		}
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			break
		}
		for i := range x {
			if !reflect.DeepEqual(x[i], y[i]) {
				return firstDiff(x[i], y[i], fmt.Sprintf("%s[%d]", path, i))
			}
		}
	}
	return fmt.Sprintf("%s: %v vs %v", path, a, b)
}
