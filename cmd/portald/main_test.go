package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"
)

// TestCoordinatorIgnoredFlags: coordinator mode names every explicitly
// set single-process flag, including one set to its default value, and
// accepts the flags it uses.
func TestCoordinatorIgnoredFlags(t *testing.T) {
	newFlags := func() *flag.FlagSet {
		fs := flag.NewFlagSet("portald", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range coordinatorOnlyLocal {
			fs.String(name, "", "")
		}
		fs.String("shards", "", "")
		fs.String("listen", ":8090", "")
		fs.Bool("crawl", false, "")
		fs.Duration("rpc-timeout", 5*time.Second, "")
		return fs
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-shards", "http://a,http://b", "-crawl", "-listen", ":0", "-rpc-timeout", "1s"}, nil},
		{[]string{"-shards", "http://a", "-max-inflight", "64"}, []string{"max-inflight"}},
		{[]string{"-data-dir", "/d", "-shards", "http://a", "-wal-sync=true", "-cache-entries", "0"},
			[]string{"cache-entries", "data-dir", "wal-sync"}},
	} {
		fs := newFlags()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if got := coordinatorIgnoredFlags(fs); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%v: ignored flags %v, want %v", tc.args, got, tc.want)
		}
	}
}
