package fuzz

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// corpusScripts returns the replay scripts the repository ships: every
// -replay argument of the agreefuzz goldens and every faults: line of the
// scenario catalog.
func corpusScripts(tb testing.TB) []string {
	tb.Helper()
	var out []string
	replay := regexp.MustCompile(`-replay '([^']*)'`)
	goldens, err := filepath.Glob("../../cmd/agreefuzz/testdata/*.golden")
	if err != nil {
		tb.Fatal(err)
	}
	for _, path := range goldens {
		text, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range replay.FindAllStringSubmatch(string(text), -1) {
			out = append(out, m[1])
		}
	}
	err = filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".scenario" {
			return err
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(text), "\n") {
			if faults, ok := strings.CutPrefix(line, "faults:"); ok {
				out = append(out, strings.TrimSpace(faults))
			}
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// FuzzScriptRoundTrip fuzzes the script format's contract: any text Parse
// accepts renders to a script that parses back to the identical value, with
// String a fixpoint, and no input panics Parse or String. It is seeded
// from the replay scripts of the agreefuzz goldens and the scenario
// catalog, crash and omission events alike.
func FuzzScriptRoundTrip(f *testing.F) {
	seeds := corpusScripts(f)
	accepted := 0
	for _, text := range seeds {
		if _, err := Parse(text); err == nil {
			accepted++
		}
		f.Add(text)
	}
	if accepted < 20 {
		f.Fatalf("only %d of %d corpus scripts parse", accepted, len(seeds))
	}
	for _, text := range []string{"", " p1@r1:/0 ; p2@r1:so:/01 ", "p01@r+2:10/00", "p1@r1:1/-1", "p9223372036854775807@r1:ro:0"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return // rejected input; the contract covers accepted text
		}
		canon := s.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Fatalf("rendering of accepted input does not parse: %v\ninput: %q\nrendered: %q", err, text, canon)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip changed the script:\ninput: %q\nfirst  %+v\nsecond %+v", text, s, s2)
		}
		if again := s2.String(); again != canon {
			t.Fatalf("String is not a fixpoint:\ninput: %q\nfirst  %q\nsecond %q", text, canon, again)
		}
	})
}
