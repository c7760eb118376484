// Package datagen synthesizes the two user datasets of the paper's
// scenarios (§III): DB-AUTHORS (database researchers and their
// publication actions) and BOOKCROSSING (book ratings at the original
// dataset's scale). The real DB-AUTHORS dump is no longer hosted and
// BookCrossing redistribution is restricted, so the generators
// reproduce the statistical shape that the paper's claims depend on —
// categorical demographics, Zipfian action skew, and overlapping
// community structure — with seeded determinism and configurable scale.
package datagen

import (
	"fmt"

	"vexus/internal/dataset"
	"vexus/internal/rng"
)

// Venues modelled on the database-community conferences the paper
// names (Scenario 1 forms SIGMOD/VLDB/CIKM committees).
var Venues = []string{
	"SIGMOD", "VLDB", "ICDE", "CIKM", "KDD", "WWW", "SIGIR", "EDBT", "PODS", "DASFAA",
}

// Topics are research areas; each author gets one dominant topic that
// drives venue choice, which is what makes topical groups minable.
var Topics = []string{
	"databases", "data mining", "web search", "machine learning",
	"visualization", "systems", "information retrieval", "theory",
}

// Countries for the geographic diversity dimension of Scenario 1.
var Countries = []string{
	"fr", "br", "us", "de", "it", "cn", "in", "uk", "jp", "ca",
}

// topicVenueAffinity[t][v] weights venue v for topic t (rows align
// with Topics, columns with Venues).
var topicVenueAffinity = [][]float64{
	{8, 8, 7, 2, 1, 1, 0.5, 5, 4, 3},   // databases
	{2, 3, 3, 6, 8, 3, 2, 2, 1, 2},     // data mining
	{1, 1, 1, 4, 3, 8, 7, 1, 0.5, 1},   // web search
	{1, 2, 2, 3, 7, 3, 2, 1, 1, 1},     // machine learning
	{2, 2, 3, 2, 2, 2, 1, 2, 0.5, 1},   // visualization
	{4, 5, 5, 1, 1, 2, 0.5, 3, 2, 2},   // systems
	{1, 1, 1, 6, 2, 5, 8, 1, 0.5, 1},   // information retrieval
	{2, 2, 1, 1, 1, 0.5, 0.5, 2, 8, 1}, // theory
}

// DBAuthorsConfig scales the generator.
type DBAuthorsConfig struct {
	NumAuthors int
	Seed       uint64
	// MeanPubs controls the Zipf-skewed per-author publication count
	// (0 = 12). Very senior authors publish ~3× the junior mean.
	MeanPubs int
}

// DBAuthorsSchema returns the demographic schema of the generated
// dataset: gender, seniority, country, topic, and a numeric
// publication-count attribute binned into rates.
func DBAuthorsSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "gender", Kind: dataset.Categorical,
			Values: []string{"female", "male"}},
		dataset.Attribute{Name: "seniority", Kind: dataset.Ordinal,
			Values: []string{"junior", "senior", "very senior"}},
		dataset.Attribute{Name: "country", Kind: dataset.Categorical,
			Values: Countries},
		dataset.Attribute{Name: "topic", Kind: dataset.Categorical,
			Values: Topics},
		dataset.Attribute{Name: "pubrate", Kind: dataset.Numeric,
			Values: []string{"occasional", "regular", "active", "extremely active"},
			Bins:   []float64{5, 20, 60}},
	)
}

// DBAuthors generates the dataset. Each author carries gender (the
// ~62/38 male/female split the paper's STATS anecdote mentions),
// seniority, country, and a dominant topic; actions are publications
// [author, venue, 1] with venue drawn from the author's topic affinity
// and count scaled by seniority.
func DBAuthors(cfg DBAuthorsConfig) (*dataset.Dataset, error) {
	if cfg.NumAuthors <= 0 {
		return nil, fmt.Errorf("datagen: NumAuthors must be positive")
	}
	if cfg.MeanPubs <= 0 {
		cfg.MeanPubs = 12
	}
	r := rng.New(cfg.Seed)
	schema := DBAuthorsSchema()
	b := dataset.NewBuilder(schema)

	venueIdx := make([]int, len(Venues))
	for i, v := range Venues {
		venueIdx[i] = b.AddItem(v, v)
	}

	countryZipf := rng.NewZipf(r.Split(1), 1.1, len(Countries))
	topicZipf := rng.NewZipf(r.Split(2), 0.9, len(Topics))
	pubZipf := rng.NewZipf(r.Split(3), 1.3, cfg.MeanPubs*6)
	demoRng := r.Split(4)
	actRng := r.Split(5)

	for i := 0; i < cfg.NumAuthors; i++ {
		gender := "male"
		if demoRng.Bool(0.38) {
			gender = "female"
		}
		seniority := "junior"
		sFactor := 1.0
		switch x := demoRng.Float64(); {
		case x < 0.2:
			seniority = "very senior"
			sFactor = 3
		case x < 0.5:
			seniority = "senior"
			sFactor = 1.8
		}
		country := Countries[countryZipf.Next()]
		topicID := topicZipf.Next()
		topic := Topics[topicID]

		nPubs := int(float64(pubZipf.Next()+1) * sFactor)
		id := fmt.Sprintf("author%05d", i)
		b.AddUserBinned(id,
			map[string]string{
				"gender": gender, "seniority": seniority,
				"country": country, "topic": topic,
			},
			map[string]float64{"pubrate": float64(nPubs)},
		)
		uidx := i

		aff := topicVenueAffinity[topicID]
		for p := 0; p < nPubs; p++ {
			v := actRng.WeightedChoice(aff)
			year := 1995 + actRng.Intn(23)
			b.AddActionByIndex(uidx, venueIdx[v], 1, int64(year))
		}
	}
	return b.Build()
}
