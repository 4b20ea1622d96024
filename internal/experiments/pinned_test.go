package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"dmesh/internal/workload"
)

// TestPaperFigureTablesPinned pins the disk-access tables of Fig 6a, 8a,
// 8b and 8c — every DM-MB, DM-SB, PM and HDoV count — at the dmbench
// defaults (highland, LayoutSTR, seed 1, 20 locations, the figures' own
// sweeps) on a 65² grid. DA is exactly deterministic, so a change that
// moves a hash moved a reproduced figure: that is a finding, never a
// reason to re-pin. The hashes were captured at the parent of the PR
// that added this test (810bd09).
func TestPaperFigureTablesPinned(t *testing.T) {
	b, err := BuildBundle("highland", 65, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{Locations: 20, Seed: 1}
	roiFracs := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	lodPcts := []float64{0.70, 0.80, 0.90, 0.95, 0.99}
	angleFracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, tc := range []struct {
		id   string
		run  func() (*Figure, error)
		want string
	}{
		{"6a", func() (*Figure, error) { return b.Fig6ROI(cfg, roiFracs) }, "7e1425fd70f948886b20cc83b6308070e86f26ef17c4eb398149d89ae09e4dab"},
		{"8a", func() (*Figure, error) { return b.Fig8ROI(cfg, roiFracs) }, "f5572ba35e87606f257b343df7b2c78cd08bd2113abd54053a4498f929cd2e04"},
		{"8b", func() (*Figure, error) { return b.Fig8LOD(cfg, 0.10, lodPcts) }, "0840d3cbec088edb61ba089f6cc67b46bed4c1186196246dfd182b0a611fbb4f"},
		{"8c", func() (*Figure, error) { return b.Fig8Angle(cfg, 0.10, angleFracs) }, "b0e8dc434237eaffd692966accb810755d3d549722d739a508c8c8c8aab2cb49"},
	} {
		fig, err := tc.run()
		if err != nil {
			t.Fatalf("figure %s: %v", tc.id, err)
		}
		// One row per point, figure,x,method,da with every digit: the
		// table dmbench -csv prints.
		var sb strings.Builder
		for _, s := range fig.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&sb, "%s,%g,%s,%g\n", tc.id, p.X, s.Method, p.DA)
			}
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("figure %s DA table moved: sha256 %s, pinned %s\n%s", tc.id, got, tc.want, sb.String())
		}
	}
}
