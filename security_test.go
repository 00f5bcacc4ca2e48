package authmem

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSecurityRowsNameExistingTests: every claim in SECURITY.md is
// executable, so every backticked Test* or Fuzz* name it cites (with or
// without a package prefix) must be a func somewhere in the tree.
func TestSecurityRowsNameExistingTests(t *testing.T) {
	doc, err := os.ReadFile("SECURITY.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile("`(?:[a-z]+\\.)?((?:Test|Fuzz)\\w+)`").FindAllSubmatch(doc, -1)
	if len(cited) == 0 {
		t.Fatal("SECURITY.md cites no tests")
	}
	for _, m := range cited {
		if !funcs[string(m[1])] {
			t.Errorf("SECURITY.md cites %s, which no test file declares", m[1])
		}
	}
}
