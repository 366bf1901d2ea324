package main

import (
	"fmt"
	"os"
	"time"

	"nous"
)

// faultQuestions are answered differently by a leader and a replica at the
// same epoch, because of two faults in the program:
//
//   - link prediction depends on process history: stream.NewWith trains the
//     model on whatever the graph holds when the pipeline is built and
//     updates it only on the ingest path, so a fact check that Predict
//     answers scores differently on a replica bootstrapped from a snapshot;
//   - live trending depends on the events a process happened to observe:
//     the trend detector is fed only events delivered after NewPipeline
//     subscribes it, and a replica never sees the pre-snapshot stream.
var faultQuestions = []string{"Did Parrot acquire Yuneec?", "What is trending?"}

// faultScenario asks the fault questions of leader and replica of an
// installation built from fixed inputs — the default world and corpus, not
// the run's seed — after a stretch of live writes, counting every differing
// answer as a failed operation. The inputs are fixed so the count is the
// same in every run.
func faultScenario(r *run) {
	w := nous.GenerateWorld(nous.DefaultWorldConfig())
	arts := nous.GenerateArticles(w, nous.DefaultArticleConfig(240))
	d, err := deploy(r, w, arts[:200], false)
	must(err)
	defer d.close()
	d.leader.IngestAll(arts[200:])
	must(waitConverged(d, time.Minute))
	qs := make([]question, len(faultQuestions))
	for i, q := range faultQuestions {
		qs[i] = question{Kind: "fault", Text: q}
	}
	if n := compareNodes(r, d, qs); n > 0 {
		fmt.Fprintf(os.Stderr, "fault scenario: %d of %d answers differ between leader and replica\n", n, len(qs))
	}
}
