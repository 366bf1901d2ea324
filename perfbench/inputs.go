package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nous"
	"nous/internal/ontology"
	"nous/internal/qa"
)

// Input sizes. The world gets one event per article, so articles past the
// curated substrate mostly carry facts the graph does not hold yet.
const (
	constructBase  = 100   // articles ingested during set-up, construct
	constructFeed  = 400   // articles one construct round integrates
	constructChunk = 10    // articles per IngestAll call in construct
	liveBase       = 200   // articles ingested during set-up, live
	liveRate       = 20    // live feed, articles per second (open loop)
	probeAsks      = 3000  // questions asked over HTTP after construct
	mixLen         = 20000 // length of the generated question stream
	setupRepeats   = 5     // set-ups per run whose median is setup_s
	readyProbes    = 1     // replicas brought up per set-up besides the deployment's own
)

// Question kinds: one per class of the ask mix. "fact" asks about a triple
// the graph holds, "predict" about one it does not, so link prediction
// answers it.
const (
	kEntity         = "entity"
	kEntityWindow   = "entity_window"
	kFact           = "fact"
	kPredict        = "predict"
	kRelationship   = "relationship"
	kTrending       = "trending"
	kTrendingWindow = "trending_window"
	kDiff           = "diff"
	kPatterns       = "patterns"
)

var kinds = []string{kEntity, kEntityWindow, kFact, kPredict, kRelationship, kTrending, kTrendingWindow, kDiff, kPatterns}

// question is one generated question with the arguments it was built from,
// which the checkers use to recompute the expected answer.
type question struct {
	Kind             string
	Text             string
	Subject, Pred    string
	Object           string
	WindowA, WindowB nous.Window
}

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	world *nous.World
	base  []nous.Article // ingested during set-up
	feed  []nous.Article // integrated, fed or probed after set-up
	mix   []question     // the question stream, cycled by the ask loops
	years []int          // years the articles span
}

// genInputs builds a world with nBase+nFeed events and one article per
// event, splitting the date-ordered articles into base and feed, and draws
// the question stream from the seed. The world and the corpus are the
// default ones at every seed: with seeded corpora, ingest cost moved by a
// third between seeds (mining is sensitive to which facts the articles
// carry), more than the bounds the benchmark holds changes to, so the seed
// varies the questions asked and the graph stays the same.
func genInputs(seed int64, nBase, nFeed int) *inputs {
	wcfg := nous.DefaultWorldConfig()
	wcfg.Events = nBase + nFeed
	w := nous.GenerateWorld(wcfg)
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(nBase+nFeed))
	sort.SliceStable(arts, func(i, j int) bool { return arts[i].Date.Before(arts[j].Date) })
	in := &inputs{world: w, base: arts[:nBase], feed: arts[nBase:]}
	first, last := arts[0].Date.Year(), arts[len(arts)-1].Date.Year()
	for y := first; y <= last; y++ {
		in.years = append(in.years, y)
	}
	in.mix = genMix(rand.New(rand.NewSource(seed*104729+11)), w, in.years, mixLen)
	return in
}

// verbs maps predicates to a verb the question parser maps back to them.
var verbs = map[string]string{
	"acquired": "acquire", "manufactures": "manufacture", "develops": "develop",
	"deploys": "deploy", "regulates": "regulate", "bans": "ban", "approves": "approve",
	"suppliesTo": "supply",
}

// questionPools holds the arguments questions are drawn from.
type questionPools struct {
	entities []string      // by descending event count: draws are skewed to the head
	present  []nous.Triple // curated triples whose fact question parses back to them
	absent   [][3]string   // acquisitions the world never saw
}

func buildPools(rng *rand.Rand, w *nous.World) questionPools {
	count := map[string]int{}
	for _, ev := range w.Events {
		count[ev.Subject]++
		count[ev.Object]++
	}
	var ents []string
	for name := range count {
		ents = append(ents, name)
	}
	sort.Slice(ents, func(i, j int) bool {
		if count[ents[i]] != count[ents[j]] {
			return count[ents[i]] > count[ents[j]]
		}
		return ents[i] < ents[j]
	})
	var p questionPools
	p.entities = ents
	for _, t := range w.Curated {
		if v, ok := verbs[t.Predicate]; ok && parsesAsFact(factText(t.Subject, v, t.Object), t.Subject, t.Predicate, t.Object) {
			p.present = append(p.present, t)
		}
	}
	companies := w.EntitiesOfType(ontology.TypeCompany)
	for tries := 0; len(p.absent) < 40 && tries < 10000; tries++ {
		s, o := companies[rng.Intn(len(companies))], companies[rng.Intn(len(companies))]
		if s != o && !w.TrueFact(s, "acquired", o) && parsesAsFact(factText(s, "acquire", o), s, "acquired", o) {
			p.absent = append(p.absent, [3]string{s, "acquired", o})
		}
	}
	return p
}

func factText(s, verb, o string) string { return fmt.Sprintf("Did %s %s %s?", s, verb, o) }

// parsesAsFact reports whether the question parser reads text as the fact
// question (s, p, o); multi-word subjects can split differently, and such
// questions are left out of the pool.
func parsesAsFact(text, s, p, o string) bool {
	q, err := qa.ParseAt(text, time.Unix(0, 0))
	return err == nil && q.Class == qa.ClassFact && q.Subject == s && q.Predicate == p && q.Object == o
}

// zipf draws an index in [0, n) with weight 1/(i+1): a few entities and
// years recur often, so a known share of questions repeat.
func zipf(rng *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// yearWindow is the window the question parser gives "in <year>".
func yearWindow(y int) nous.Window {
	return nous.Window{
		Since: time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
		Until: time.Date(y+1, 1, 1, 0, 0, 0, 0, time.UTC).Unix(),
	}
}

// genQuestion draws one question of the given kind.
func genQuestion(rng *rand.Rand, p questionPools, years []int, kind string) question {
	ent := func() string { return p.entities[zipf(rng, len(p.entities))] }
	year := func() int { return years[zipf(rng, len(years))] }
	switch kind {
	case kEntity:
		e := ent()
		return question{Kind: kind, Text: "Tell me about " + e, Subject: e}
	case kEntityWindow:
		e, y := ent(), year()
		return question{Kind: kind, Text: fmt.Sprintf("Tell me about %s in %d", e, y), Subject: e, WindowA: yearWindow(y)}
	case kFact:
		t := p.present[zipf(rng, len(p.present))]
		return question{Kind: kind, Text: factText(t.Subject, verbs[t.Predicate], t.Object), Subject: t.Subject, Pred: t.Predicate, Object: t.Object}
	case kPredict:
		t := p.absent[zipf(rng, len(p.absent))]
		return question{Kind: kind, Text: factText(t[0], "acquire", t[2]), Subject: t[0], Pred: t[1], Object: t[2]}
	case kRelationship:
		a, b := ent(), ent()
		for a == b {
			b = ent()
		}
		return question{Kind: kind, Text: fmt.Sprintf("How is %s related to %s?", a, b), Subject: a, Object: b}
	case kTrending:
		return question{Kind: kind, Text: "What is trending?"}
	case kTrendingWindow:
		y := year()
		return question{Kind: kind, Text: fmt.Sprintf("What was trending in %d?", y), WindowA: yearWindow(y)}
	case kDiff:
		e := ent()
		i := zipf(rng, len(years)-1)
		ya, yb := years[i], years[i+1]
		return question{Kind: kind, Text: fmt.Sprintf("What changed about %s between %d and %d?", e, ya, yb),
			Subject: e, WindowA: yearWindow(ya), WindowB: yearWindow(yb)}
	case kPatterns:
		return question{Kind: kind, Text: "What patterns are frequent?"}
	}
	panic("unknown question kind " + kind)
}

// genMix draws n questions, every kind with the same share: no source
// gives the classes' real frequencies, so none is favoured.
func genMix(rng *rand.Rand, w *nous.World, years []int, n int) []question {
	p := buildPools(rng, w)
	out := make([]question, n)
	for i := range out {
		out[i] = genQuestion(rng, p, years, kinds[rng.Intn(len(kinds))])
	}
	return out
}

// firstOfEachKind returns up to n questions of every kind from the stream,
// in stream order.
func firstOfEachKind(mix []question, n int, skip map[string]bool) []question {
	got := map[string]int{}
	seen := map[string]bool{}
	var out []question
	for _, q := range mix {
		if skip[q.Kind] || got[q.Kind] >= n || seen[q.Text] {
			continue
		}
		seen[q.Text] = true
		got[q.Kind]++
		out = append(out, q)
	}
	return out
}
