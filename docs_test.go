package dmesh_test

import (
	"bytes"
	"go/build"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strings"
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

// executableMagics are the leading bytes of ELF, Mach-O (32- and 64-bit,
// either byte order, and universal) and PE executables.
var executableMagics = [][]byte{
	[]byte("\x7fELF"),
	{0xfe, 0xed, 0xfa, 0xce}, {0xfe, 0xed, 0xfa, 0xcf},
	{0xce, 0xfa, 0xed, 0xfe}, {0xcf, 0xfa, 0xed, 0xfe},
	{0xca, 0xfe, 0xba, 0xbe},
	[]byte("MZ"),
}

// maxTrackedBytes bounds a tracked file. The largest legitimate one is a
// document of a few hundred kilobytes; a build output is megabytes.
const maxTrackedBytes = 1 << 20

// TestNoBuildOutputsTracked fails when git tracks an executable or a file
// over maxTrackedBytes: `go build ./cmd/<name>` run from the root leaves
// its binary beside go.mod, where `git add -A` picks it up. Without git
// (an exported tree) there is nothing to check, and the test says so.
func TestNoBuildOutputsTracked(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("cannot list the tracked files (git ls-files: %v)", err)
	}
	files := strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
	if len(files) < 2 {
		t.Skipf("git ls-files lists %d files: not run inside the repository's work tree", len(files))
	}
	for _, name := range files {
		info, err := os.Lstat(name)
		if err != nil || !info.Mode().IsRegular() {
			continue // deleted in the work tree, or a link
		}
		if info.Size() > maxTrackedBytes {
			t.Errorf("%s: tracked file of %d bytes, over the %d-byte bound", name, info.Size(), maxTrackedBytes)
		}
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		head := make([]byte, 4)
		n, _ := io.ReadFull(f, head)
		f.Close()
		for _, magic := range executableMagics {
			if bytes.HasPrefix(head[:n], magic) {
				t.Errorf("%s: tracked file is an executable (starts %q)", name, head[:n])
			}
		}
	}
}
