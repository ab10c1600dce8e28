package bingo_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	bingo "github.com/bingo-search/bingo"
)

// ExampleNewEngine shows the full focused-crawl lifecycle against the
// synthetic web: bootstrap from bookmark seeds, learning phase, harvesting
// phase, then querying the resulting portal.
func ExampleNewEngine() {
	world := bingo.GenerateWorld(bingo.TinyWorldConfig())
	engine, err := bingo.EngineForWorld(world,
		[]bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}},
		func(c *bingo.Config) {
			c.LearnBudget = 80
			c.HarvestBudget = 200
		})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := engine.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	hits := engine.Search().Search(bingo.SearchQuery{
		Text:  "database recovery",
		Topic: "ROOT/databases",
		Limit: 3,
	})
	for _, h := range hits {
		fmt.Println(h.Doc.URL)
	}
}

// ExampleParseTopicFile shows loading topic seeds from the plain-text
// bookmark format.
func ExampleParseTopicFile() {
	const seeds = `# my overnight crawl
databases/systems	http://cs00.databases.example/~author0000/index.html
databases/mining	http://cs01.databases.example/~author0001/index.html
`
	topics, err := bingo.ParseTopicFile(strings.NewReader(seeds))
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range topics {
		fmt.Println(t.Path, len(t.Seeds))
	}
	// Output:
	// [databases mining] 1
	// [databases systems] 1
}

// ExampleEngine_SaveSession shows pausing a crawl overnight-style and
// resuming it later with extra budget. The crawl database lives in the data
// dir; the session file holds the training set, seeds and frontier.
func ExampleEngine_SaveSession() {
	world := bingo.GenerateWorld(bingo.TinyWorldConfig())
	topics := []bingo.TopicSpec{{Path: []string{"databases"}, Seeds: world.SeedURLs()}}
	engine, err := bingo.EngineForWorld(world, topics, func(c *bingo.Config) {
		c.LearnBudget = 50
		c.HarvestBudget = 50
		c.DataDir = "/tmp/crawl"
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, _, err := engine.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	_ = engine.SaveSession("/tmp/crawl.session")
	_ = engine.Close()

	// ... next morning, in the same data dir:
	cfg := mustConfig(world, topics)
	cfg.DataDir = "/tmp/crawl"
	resumed, err := bingo.LoadSession(cfg, "/tmp/crawl.session")
	if err != nil {
		log.Fatal(err)
	}
	_, _ = resumed.HarvestN(context.Background(), 200)
	_ = resumed.Close()
}

func mustConfig(world *bingo.World, topics []bingo.TopicSpec) bingo.Config {
	table := map[string]string{}
	for h, rec := range world.DNSTable() {
		table[h] = rec.IP
	}
	return bingo.Config{
		Topics:     topics,
		OthersURLs: world.GeneralPageURLs(12),
		Transport:  world.RoundTripper(),
		DNSServers: []bingo.DNSServerSpec{{Table: table}},
	}
}
