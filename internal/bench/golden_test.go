package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestTablesE1E18Golden renders E1–E18 with the default seed, 4 trials and
// scale 0.2 (Workers 0) and demands the bytes of the committed output of
//
//	robustbench -exp E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,E11,E12,E13,E14,E15,E16,E17,E18 -trials 4 -scale 0.2
//
// A change that moves a table on purpose regenerates the file with that
// command and says why.
func TestTablesE1E18Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables_e1_e18.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: DefaultConfig().Seed, Trials: 4, Scale: 0.2}
	var got bytes.Buffer
	for _, e := range All()[:18] {
		e.Run(cfg).Render(&got)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("tables differ from testdata/tables_e1_e18.golden at line %d:\ngot  %q\nwant %q", i+1, g, w)
		}
	}
}
