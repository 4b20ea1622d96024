// Command dmrepack rewrites an existing Direct Mesh store directory
// under the other physical layout (packed or str) — the offline
// re-layout pass. It reads every node record (including overflowed
// connection lists) out of the source store, re-encodes it for the target
// layout, and writes a fresh, independently openable store. Queries
// against the repacked store return byte-identical answers; only page
// placement — and therefore disk accesses — changes. The source's rung
// sets (the live-ID sets tiles are filtered by) are rebuilt for the same
// rungs. The source must be in the current store format; a directory
// written by an older build is refused and has to be rebuilt with
// dmbuild.
//
// Usage:
//
//	dmrepack -src ./stores/highland-str -out ./stores/highland [-layout packed|str]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmesh"
)

func main() {
	var (
		src     = flag.String("src", "", "source store directory (required)")
		out     = flag.String("out", "", "output directory for the repacked store (required)")
		layoutF = flag.String("layout", "packed", "target layout: packed or str")
	)
	flag.Parse()
	if *src == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "dmrepack: -src and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	layout, err := dmesh.ParseLayout(*layoutF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmrepack:", err)
		os.Exit(2)
	}
	if err := run(*src, *out, layout); err != nil {
		fmt.Fprintln(os.Stderr, "dmrepack:", err)
		os.Exit(1)
	}
}

func run(src, out string, layout dmesh.Layout) error {
	s, err := dmesh.OpenDMStore(src)
	if err != nil {
		return err
	}
	defer s.Close()
	fmt.Printf("repacking %s (%s layout, %d nodes, %d+%d data/overflow pages) -> %s (%s layout)...\n",
		src, s.Layout(), s.NumNodes(), s.DataPages(), s.OverflowPages(), out, layout)

	start := time.Now()
	rp, err := dmesh.RepackDMStore(s, dmesh.StorePools{Layout: layout}, out)
	if err != nil {
		return err
	}
	defer rp.Close()
	fmt.Printf("  done (%.1fs): %d nodes, %d+%d data/overflow pages, rung sets for %d LODs\n",
		time.Since(start).Seconds(), rp.NumNodes(), rp.DataPages(), rp.OverflowPages(), len(rp.Rungs()))
	return nil
}
