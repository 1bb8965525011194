package lpq

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lambada/internal/columnar"
	"lambada/internal/tpch"
)

// The golden table pins every byte WriteFile emits. It was recorded at the
// commit before the writer stopped buffering eagerly (PR 12's parent), so any
// encoded byte that moves — encoding choice, statistics, distinct counts, page
// layout, footer, compressed stream — fails here. Regenerate only for an
// intended format change:
//
//	go test ./internal/lpq/ -run TestWriteFileGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/writefile.golden from this build's output")

const goldenPath = "testdata/writefile.golden"

// goldenChunks are the inputs of the matrix: no rows, one row, a TPC-H
// LINEITEM sample (sorted dates, low-cardinality flags, near-unique keys and
// prices), and a chunk of the values the encoders treat specially (NaN, ±0,
// extreme ints, bool runs).
func goldenChunks() map[string]*columnar.Chunk {
	li := tpch.Gen{SF: 0.001, Seed: 7}.Generate()
	edge := columnar.NewChunk(testSchema(), 0)
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 7, 7, 7, -1, 0}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, math.Inf(1), math.Inf(-1), 1.5, math.NaN(), -2.25, 0}
	for i := 0; i < 6000; i++ {
		edge.Columns[0].AppendInt64(ints[(i*i+i/7)%len(ints)])
		edge.Columns[1].AppendFloat64(floats[(i*3+i/11)%len(floats)])
		edge.Columns[2].AppendBool(i%64 < 40)
	}
	return map[string]*columnar.Chunk{
		"empty": columnar.NewChunk(tpch.Schema(), 0),
		"one":   li.Slice(0, 1),
		"tpch7": li,
		"edge":  edge,
	}
}

// goldenCases enumerates {None, Gzip} × layouts × {v1, v2} × encoding modes ×
// chunks as name → file bytes.
func goldenCases(t *testing.T) map[string][]byte {
	t.Helper()
	layouts := []struct {
		name string
		opts WriterOptions
	}{
		{"unpaged", WriterOptions{PageRows: 1 << 20}},
		{"paged", WriterOptions{PageRows: 512}},
		{"multi", WriterOptions{RowGroupRows: 1000}},
		{"multipaged", WriterOptions{RowGroupRows: 1000, PageRows: 256}},
	}
	modes := []struct {
		name    string
		force   bool
		enc     Encoding
		nostats bool
	}{
		{name: "auto"},
		{name: "nostats", nostats: true},
		{name: "plain", force: true, enc: Plain},
		{name: "rle", force: true, enc: RLE},
		{name: "delta", force: true, enc: Delta},
		{name: "dict", force: true, enc: Dict},
	}
	out := map[string][]byte{}
	for cname, c := range goldenChunks() {
		for _, comp := range []Compression{None, Gzip} {
			for _, l := range layouts {
				for _, v1 := range []bool{false, true} {
					for _, m := range modes {
						opts := l.opts
						opts.Compression = comp
						opts.FormatV1 = v1
						opts.DisableStats = m.nostats
						if m.force {
							opts.ForceEncoding = map[int]Encoding{}
							for j := range c.Columns {
								opts.ForceEncoding[j] = m.enc
							}
						}
						version := "v2"
						if v1 {
							version = "v1"
						}
						name := fmt.Sprintf("%s/%s/%s/%s/%s", cname, comp, l.name, version, m.name)
						data, err := WriteFile(c.Schema, opts, c)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						out[name] = data
					}
				}
			}
		}
	}
	return out
}

func TestWriteFileGolden(t *testing.T) {
	cases := goldenCases(t)
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := func(name string) string {
		h := sha256.Sum256(cases[name])
		return hex.EncodeToString(h[:])
	}
	// compress/flate promises no stable output across Go releases, so the
	// file records the release its Gzip rows were made with and they are
	// checked on that release only; the None rows hold everywhere.
	release := strings.Join(strings.SplitN(runtime.Version(), ".", 3)[:2], ".")

	if *updateGolden {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# sha256 of lpq.WriteFile output; gzip rows recorded with %s\n", release)
		for _, name := range names {
			fmt.Fprintf(&buf, "%s %s\n", name, sum(name))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	gzipRelease := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			gzipRelease = line[strings.LastIndex(line, " ")+1:]
			continue
		}
		name, hash, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = hash
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(names) {
		t.Errorf("golden file has %d rows, the matrix %d", len(want), len(names))
	}
	skipped := 0
	for _, name := range names {
		if strings.Contains(name, "/GZIP/") && release != gzipRelease {
			skipped++
			continue
		}
		if got := sum(name); got != want[name] {
			t.Errorf("%s: sha256 %s, golden %s", name, got, want[name])
		}
	}
	if skipped > 0 {
		t.Logf("skipped %d gzip rows: recorded with %s, running %s", skipped, gzipRelease, release)
	}
}

// TestWriteFileSplitInputIdentical: however the rows arrive — one chunk
// encoded in place, several chunks through the row-group buffer, or a
// streaming Writer fed small pieces — the file is the same.
func TestWriteFileSplitInputIdentical(t *testing.T) {
	c := goldenChunks()["tpch7"]
	n := c.NumRows()
	for _, opts := range []WriterOptions{
		{},
		{RowGroupRows: 1000, PageRows: 256, Compression: Gzip},
		{RowGroupRows: 700},
	} {
		whole, err := WriteFile(c.Schema, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		pieces := []*columnar.Chunk{c.Slice(0, 1), c.Slice(1, 1), c.Slice(1, 2501), c.Slice(2501, n)}
		split, err := WriteFile(c.Schema, opts, pieces...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, split) {
			t.Errorf("%+v: multi-chunk WriteFile differs from the one-chunk file", opts)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, c.Schema, opts)
		for lo := 0; lo < n; lo += 333 {
			if err := w.Write(c.Slice(lo, min(lo+333, n))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, buf.Bytes()) {
			t.Errorf("%+v: streaming Writer differs from WriteFile", opts)
		}
		if w.Size() != int64(len(whole)) {
			t.Errorf("%+v: Size() = %d, file has %d bytes", opts, w.Size(), len(whole))
		}
	}
}
