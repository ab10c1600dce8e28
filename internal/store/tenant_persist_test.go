package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tenantDoc builds one tenant-tagged row.
func tenantDoc(tenant, u string, terms map[string]int) Document {
	return Document{Tenant: tenant, URL: u, Topic: "ROOT/db", Confidence: 0.5, Terms: terms}
}

// fillTenants inserts n rows spread across the default tenant and two named
// ones, including the same URL stored by different tenants.
func fillTenants(s *Store, n int) {
	tenants := []string{"", "beta", "gamma"}
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("http://t%d.example/p%d", i%7, i)
		s.Insert(tenantDoc(tenants[i%len(tenants)], u, map[string]int{"term": 1 + i%3}))
	}
	// A shared URL: every tenant holds its own row for it.
	for _, tn := range tenants {
		s.Insert(tenantDoc(tn, "http://shared.example/page", map[string]int{"share": 2}))
	}
}

// decodeFixture decodes testdata/name, a legacy stream written by the last
// release that still had a stream writer (Store.Encode), after checking
// the stream's magic and version byte.
func decodeFixture(t *testing.T, name string, version byte) *Store {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, append(storeMagic[:], version)) {
		t.Fatalf("%s: stream missing v%d header", name, version)
	}
	s, err := Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// TestPersistV3TenantRoundTrip: tenant-tagged v3 frames decode back onto
// the right shards — per-tenant counts, per-tenant lookups and the
// shared-URL rows all match the store the fixture was written from
// (testdata/v3-p*.bngo hold fillTenants(NewSharded(p), 90)).
func TestPersistV3TenantRoundTrip(t *testing.T) {
	for _, p := range []int{1, 4} {
		s := NewSharded(p)
		fillTenants(s, 90)
		got := decodeFixture(t, fmt.Sprintf("v3-p%d.bngo", p), 3)
		if got.NumDocs() != s.NumDocs() {
			t.Fatalf("p=%d: doc count %d vs %d", p, got.NumDocs(), s.NumDocs())
		}
		for _, tn := range []string{"", "beta", "gamma"} {
			if w, g := s.TenantNumDocs(tn), got.TenantNumDocs(tn); w != g {
				t.Fatalf("p=%d tenant %q: %d docs reloaded as %d", p, tn, w, g)
			}
			d, err := got.GetDoc(tn, "http://shared.example/page")
			if err != nil || d.Tenant != tn {
				t.Fatalf("p=%d tenant %q: shared row = %+v, %v", p, tn, d, err)
			}
		}
		for _, d := range s.All() {
			rd, err := got.GetDoc(d.Tenant, d.URL)
			if err != nil || rd.ID != d.ID || rd.Tenant != d.Tenant {
				t.Fatalf("p=%d: doc %q/%s ID %d -> %+v (%v)", p, d.Tenant, d.URL, d.ID, rd, err)
			}
		}
	}
}

// TestPersistV2StreamLoadsAsDefaultTenant: a legacy v2 stream — the
// pre-tenancy layout, rows without the Tenant field — decodes with every
// row on the default tenant and identical doc counts (testdata/v2-p*.bngo
// hold fillSharded(NewSharded(p), 150)).
func TestPersistV2StreamLoadsAsDefaultTenant(t *testing.T) {
	for _, p := range []int{1, 4} {
		s := NewSharded(p)
		fillSharded(s, 150)
		got := decodeFixture(t, fmt.Sprintf("v2-p%d.bngo", p), 2)
		if got.NumDocs() != s.NumDocs() {
			t.Fatalf("p=%d: doc count %d vs %d", p, got.NumDocs(), s.NumDocs())
		}
		if got.TenantNumDocs("") != got.NumDocs() {
			t.Fatalf("p=%d: v2 rows not all on the default tenant: %d of %d",
				p, got.TenantNumDocs(""), got.NumDocs())
		}
		got.VisitDocs(func(d Document) bool {
			if d.Tenant != "" {
				t.Fatalf("p=%d: v2 row %s decoded with tenant %q", p, d.URL, d.Tenant)
			}
			return true
		})
		// Legacy URL-keyed lookups still resolve every row.
		for _, d := range s.All() {
			rd, err := got.GetByURL(d.URL)
			if err != nil || rd.ID != d.ID {
				t.Fatalf("p=%d: GetByURL(%s) = %+v, %v", p, d.URL, rd, err)
			}
		}
	}
}

// TestTenantWorkspaceRouting: crawler workspaces route tenant-tagged rows
// to the shard owning the (tenant, url) key, and both tenants' rows of a
// shared URL are retrievable afterwards.
func TestTenantWorkspaceRouting(t *testing.T) {
	s := NewSharded(8)
	w := s.NewWorkspace(8)
	for i := 0; i < 60; i++ {
		u := fmt.Sprintf("http://ws%d.example/p%d", i%5, i)
		tn := ""
		if i%2 == 1 {
			tn = "beta"
		}
		w.Add(tenantDoc(tn, u, map[string]int{"ws": 1}))
	}
	w.Add(tenantDoc("", "http://both.example/x", map[string]int{"x": 1}))
	w.Add(tenantDoc("beta", "http://both.example/x", map[string]int{"x": 2}))
	w.Flush()
	if s.NumDocs() != 62 {
		t.Fatalf("NumDocs = %d", s.NumDocs())
	}
	if s.TenantNumDocs("") != 31 || s.TenantNumDocs("beta") != 31 {
		t.Fatalf("tenant counts %d/%d", s.TenantNumDocs(""), s.TenantNumDocs("beta"))
	}
	a, err := s.GetDoc("", "http://both.example/x")
	if err != nil || a.Terms["x"] != 1 {
		t.Fatalf("default row = %+v, %v", a, err)
	}
	b, err := s.GetDoc("beta", "http://both.example/x")
	if err != nil || b.Terms["x"] != 2 {
		t.Fatalf("beta row = %+v, %v", b, err)
	}
}
