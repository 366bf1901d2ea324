package main

import (
	"strings"
	"testing"
	"time"

	"nous"
	"nous/internal/core"
	"nous/internal/ontology"
	"nous/internal/qa"
)

var (
	jun2012 = time.Date(2012, 6, 1, 0, 0, 0, 0, time.UTC)
	mar2013 = time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
)

func triple(s, p, o string, st, ot ontology.EntityType, at time.Time, doc string) core.Triple {
	return core.Triple{Subject: s, Predicate: p, Object: o, SubjectType: st, ObjectType: ot, Confidence: 0.9,
		Curated: at.IsZero(), Provenance: core.Provenance{Source: "wsj", DocID: doc, Time: at}}
}

// tinyKG holds one curated partnership and three extracted facts about
// Acme: an acquisition in 2012, and a development and a product in 2013.
func tinyKG(t *testing.T) []core.Fact {
	t.Helper()
	kg := nous.NewKG(nil)
	_, errs := kg.AddFacts([]core.Triple{
		triple("Acme", "partnersWith", "Bolt", ontology.TypeCompany, ontology.TypeCompany, time.Time{}, ""),
		triple("Acme", "acquired", "Bolt", ontology.TypeCompany, ontology.TypeCompany, jun2012, "d1"),
		triple("Acme", "develops", "Lidar", ontology.TypeCompany, ontology.TypeTechnology, mar2013, "d2"),
		triple("Cirrus", "manufactures", "Hawk", ontology.TypeCompany, ontology.TypeProduct, mar2013, "d2"),
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return kg.AllFacts()
}

func factsWhere(facts []core.Fact, pred string) []core.Fact {
	var out []core.Fact
	for _, f := range facts {
		if f.Predicate == pred {
			out = append(out, f)
		}
	}
	return out
}

func mustFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: wrong answer accepted", what)
	}
}

func TestCheckFact(t *testing.T) {
	ref := newReference(tinyKG(t))
	if err := ref.checkFact("Acme", "acquired", "Bolt", &qa.FactAnswer{Known: true}); err != nil {
		t.Fatal(err)
	}
	if err := ref.checkFact("Bolt", "acquired", "Acme", &qa.FactAnswer{Known: false, Plausible: 0.4}); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "stored fact reported unknown", ref.checkFact("Acme", "acquired", "Bolt", &qa.FactAnswer{Known: false}))
	mustFail(t, "absent fact reported known", ref.checkFact("Bolt", "acquired", "Acme", &qa.FactAnswer{Known: true}))
	mustFail(t, "missing payload", ref.checkFact("Acme", "acquired", "Bolt", nil))
}

func TestCheckDiff(t *testing.T) {
	facts := tinyKG(t)
	ref := newReference(facts)
	wa, wb := yearWindow(2012), yearWindow(2013)
	right := func() *nous.DiffAnswer {
		return &nous.DiffAnswer{
			Added:     factsWhere(facts, "develops"),
			Removed:   factsWhere(facts, "acquired"),
			Unchanged: 1, // the curated partnership is in both windows
		}
	}
	if err := ref.checkDiff("Acme", wa, wb, right()); err != nil {
		t.Fatal(err)
	}
	d := right()
	d.Added = nil
	mustFail(t, "added fact missing", ref.checkDiff("Acme", wa, wb, d))
	d = right()
	d.Removed = append(d.Removed, factsWhere(facts, "partnersWith")...)
	mustFail(t, "curated fact reported removed", ref.checkDiff("Acme", wa, wb, d))
	d = right()
	d.Added = append(d.Added, factsWhere(facts, "manufactures")...)
	mustFail(t, "another entity's fact reported added", ref.checkDiff("Acme", wa, wb, d))
	d = right()
	d.Added = append(d.Added, d.Added...)
	mustFail(t, "fact listed twice", ref.checkDiff("Acme", wa, wb, d))
	d = right()
	d.Unchanged = 0
	mustFail(t, "unchanged count", ref.checkDiff("Acme", wa, wb, d))
}

func TestCheckPaths(t *testing.T) {
	ref := newReference(tinyKG(t))
	good := []qa.ExplainedPath{{Hops: []string{"Lidar <-[develops]- Acme", "Acme -[acquired]-> Bolt"}}}
	if err := ref.checkPaths("Lidar", "Bolt", good); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "hop not stored", ref.checkPaths("Lidar", "Bolt",
		[]qa.ExplainedPath{{Hops: []string{"Lidar <-[develops]- Acme", "Acme -[bans]-> Bolt"}}}))
	mustFail(t, "hop reversed", ref.checkPaths("Lidar", "Bolt",
		[]qa.ExplainedPath{{Hops: []string{"Lidar -[develops]-> Acme", "Acme -[acquired]-> Bolt"}}}))
	mustFail(t, "path stops short", ref.checkPaths("Lidar", "Bolt",
		[]qa.ExplainedPath{{Hops: []string{"Lidar <-[develops]- Acme"}}}))
	mustFail(t, "hops do not chain", ref.checkPaths("Lidar", "Bolt",
		[]qa.ExplainedPath{{Hops: []string{"Lidar <-[develops]- Acme", "Cirrus -[manufactures]-> Hawk"}}}))
	mustFail(t, "unreadable hop", ref.checkPaths("Lidar", "Bolt", []qa.ExplainedPath{{Hops: []string{"Lidar to Bolt"}}}))
}

func TestCheckProvenance(t *testing.T) {
	facts := tinyKG(t)
	arts := []nous.Article{
		{ID: "d1", Source: "wsj", Date: jun2012.Add(300 * time.Millisecond)},
		{ID: "d2", Source: "wsj", Date: mar2013},
	}
	if err := checkProvenance(facts, arts); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "document never ingested", checkProvenance(facts, arts[:1]))
	moved := append([]nous.Article(nil), arts...)
	moved[1].Date = mar2013.Add(time.Second)
	mustFail(t, "date differs", checkProvenance(facts, moved))
	other := append([]nous.Article(nil), arts...)
	other[0].Source = "reuters"
	mustFail(t, "source differs", checkProvenance(facts, other))
}

func TestCheckCurated(t *testing.T) {
	facts := tinyKG(t)
	kb := []core.Triple{{Subject: "Acme", Predicate: "partnersWith", Object: "Bolt"}}
	if err := checkCurated(facts, kb); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "curated fact missing", checkCurated(facts, append(kb, core.Triple{Subject: "Acme", Predicate: "acquired", Object: "Cirrus"})))
	mustFail(t, "extra curated fact", checkCurated(facts, nil))
}

func TestCheckEntity(t *testing.T) {
	facts := tinyKG(t)
	ref := newReference(facts)
	in2013 := &qa.EntitySummary{Name: "Acme", Facts: append(factsWhere(facts, "partnersWith"), factsWhere(facts, "develops")...)}
	if err := ref.checkEntity("Acme", yearWindow(2013), in2013); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "fact outside the window", ref.checkEntity("Acme", yearWindow(2012), in2013))
	mustFail(t, "another entity's summary", ref.checkEntity("Bolt", yearWindow(2013), in2013))
	bogus := &qa.EntitySummary{Name: "Acme", Facts: []core.Fact{{Triple: core.Triple{Subject: "Acme", Predicate: "bans", Object: "Bolt", Curated: true}}}}
	mustFail(t, "fact not stored", ref.checkEntity("Acme", nous.Window{}, bogus))
}

func TestCheckPatternsAndIndex(t *testing.T) {
	if err := checkPatterns([]nous.Pattern{{Support: 3}, {Support: 7}}, 3); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "pattern below support", checkPatterns([]nous.Pattern{{Support: 2, VertexLabels: []string{"Company"}}}, 3))

	facts := tinyKG(t)
	var ids []core.FactID
	for _, f := range facts {
		ids = append(ids, f.ID)
	}
	if err := checkIndexed(facts, ids); err != nil {
		t.Fatal(err)
	}
	mustFail(t, "fact missing from the index", checkIndexed(facts, ids[1:]))
	mustFail(t, "index holds more than the facts", checkIndexed(facts[1:], ids))
}

func TestRenderedComparison(t *testing.T) {
	facts := tinyKG(t)
	a := renderFacts(facts)
	// The same instant in another zone renders identically.
	moved := append([]core.Fact(nil), facts...)
	for i := range moved {
		moved[i].Provenance.Time = moved[i].Provenance.Time.In(time.FixedZone("X", 3600))
	}
	if err := sameLines(a, renderFacts(moved)); err != nil {
		t.Fatal(err)
	}
	moved[0].Confidence += 1e-9
	mustFail(t, "confidence differs", sameLines(a, renderFacts(moved)))
	mustFail(t, "fact missing", sameLines(a, renderFacts(facts[1:])))

	x := instants(map[string]any{"t": "2015-01-01T01:00:00+01:00", "n": []any{"plain"}})
	y := instants(map[string]any{"t": "2015-01-01T00:00:00Z", "n": []any{"plain"}})
	if d := firstDiff(x, y, "data"); !strings.Contains(d, "data") || x.(map[string]any)["t"] != y.(map[string]any)["t"] {
		t.Errorf("instants not normalised: %v vs %v", x, y)
	}
}
