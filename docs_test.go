package dmesh_test

import (
	"go/build"
	"os"
	"regexp"
	"testing"
)

// goRun matches a `go run ./<dir>` command, also when the doc wraps it.
var goRun = regexp.MustCompile(`go\s+run\s+\./([\w./-]+)`)

// TestDocumentedProgramsExist fails when README.md or the verify skill
// tells a reader to `go run` a directory that is not a main package, so a
// deleted program cannot stay promised in the docs.
func TestDocumentedProgramsExist(t *testing.T) {
	for _, doc := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range goRun.FindAllSubmatch(text, -1) {
			dir := string(m[1])
			if seen[dir] {
				continue
			}
			seen[dir] = true
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Errorf("%s: go run ./%s: %v", doc, dir, err)
			} else if !pkg.IsCommand() {
				t.Errorf("%s: go run ./%s: package %s is not a main package", doc, dir, pkg.Name)
			}
		}
		if len(seen) == 0 {
			t.Errorf("%s names no go run command: the pattern no longer matches the doc", doc)
		}
	}
}
