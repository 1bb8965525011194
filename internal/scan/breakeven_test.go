package scan

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"time"

	"lambada/internal/awssim/s3"
	"lambada/internal/awssim/simenv"
	"lambada/internal/columnar"
	"lambada/internal/engine"
	"lambada/internal/lpq"
	"lambada/internal/netmodel"
	"lambada/internal/simclock"
)

// TestPayloadBreakEven pins the break-even's derivation: the bytes the
// sustained Lambda ingress rate moves in one mean S3 GET first-byte latency,
// ≈ 2.9 MiB at the paper's calibration (§4.3.1).
func TestPayloadBreakEven(t *testing.T) {
	mean := s3.DefaultAWSConfig(nil, 0).GetLatency.Mean()
	sustained := netmodel.DefaultLambdaNet().Sustained
	if want := int64(mean.Seconds() * float64(sustained)); payloadBreakEven != want {
		t.Errorf("payloadBreakEven = %d, want %v × %.0f B/s = %d", payloadBreakEven, mean, float64(sustained), want)
	}
	if mib := float64(payloadBreakEven) / netmodel.MiB; mib < 2.8 || mib > 3.0 {
		t.Errorf("payloadBreakEven = %.2f MiB, want ≈ 2.9 MiB", mib)
	}
}

// TestScanFilteredStraddlesBreakEven scans one file whose two row groups fall
// on either side of the break-even: a small gzip group, whose payload rides
// the filter's request window, and an uncompressed one whose kept payload is
// above payloadBreakEven, read in two windows as before. The large group's
// first window — its filter columns, ≈ 512 KB of delta and run-length pages —
// fits beside the small group's under payloadBreakEven, so the two groups
// share one. In the small group
// page-index pruning drops the first pages, so its window starts past the
// chunk's first byte, and the filter empties every other page, the first
// kept one included. The first group must yield after the shared window, the
// second after its payload's window; payload pages the filter emptied are never decoded
// (PagesRead is the two-phase read's); the rows are scan-then-filter's.
func TestScanFilteredStraddlesBreakEven(t *testing.T) {
	const (
		smallPageRows, smallPages = 512, 8
		largePageRows, largePages = 1 << 16, 8
		first                     = 3*smallPageRows + 100 // k's lower bound: pages 0–2 of group 0 pruned
	)
	small := straddleGroup(0, smallPageRows, smallPages)
	large := straddleGroup(smallPageRows*smallPages, largePageRows, largePages)
	raw := spliceGroups(t,
		writeGroup(t, small, lpq.WriterOptions{PageRows: smallPageRows, RowGroupRows: small.NumRows(), Compression: lpq.Gzip}),
		writeGroup(t, large, lpq.WriterOptions{PageRows: largePageRows, RowGroupRows: large.NumRows()}),
	)
	svc := s3.New(s3.Config{GetLatency: netmodel.Constant(lat)})
	svc.MustCreateBucket("data")
	if err := svc.Put(simenv.NewImmediate(), "data", "t.lpq", raw); err != nil {
		t.Fatal(err)
	}
	ref := FileRef{Bucket: "data", Key: "t.lpq"}
	filter := engine.And(
		engine.NewBin(engine.OpGE, engine.Col("k"), engine.ConstInt(first)),
		engine.NewBin(engine.OpEQ, engine.Col("f"), engine.ConstInt(1)),
	)
	preds := []lpq.Predicate{{Column: "k", Min: first, Max: math.MaxInt64, HasInt: true, MinInt: first, MaxInt: math.MaxInt64}}

	// The premise: group 0's kept payload is at most the break-even, group
	// 1's above it, and the two-phase read decodes every kept filter page and
	// the payload of every page with a passing row.
	meta, _, err := New(newClient(svc), Config{}, ref).open(ref)
	if err != nil {
		t.Fatal(err)
	}
	var twoPhasePages int64
	for g, c := range []*columnar.Chunk{small, large} {
		keep := lpq.PrunePages(meta, g, preds)
		lo, hi, _ := pageWindow(keep)
		pages := meta.RowGroups[g].Columns[2].PageSpans(meta.RowGroups[g].NumRows)
		payload := pages[hi].RelOff + pages[hi].CompressedLen - pages[lo].RelOff
		if early := payload <= payloadBreakEven; early != (g == 0) {
			t.Fatalf("group %d: kept payload %d bytes, break-even %d — test premise broken", g, payload, payloadBreakEven)
		}
		for p, kept := range keep {
			if !kept {
				continue
			}
			twoPhasePages += 2
			for row := p * int(pages[0].NumRows); row < min((p+1)*int(pages[0].NumRows), c.NumRows()); row++ {
				if c.Columns[0].Int64s[row] >= first && c.Columns[1].Int64s[row] == 1 {
					twoPhasePages++
					break
				}
			}
		}
	}

	schema := mustSchema(t, New(newClient(svc), Config{}, ref), nil)
	got := columnar.NewChunk(schema, 0)
	var yieldedAt []time.Duration
	var st Stats
	onKernel(t, func(p *simclock.Proc) {
		src := New(s3.NewClient(svc, p), Config{}, ref)
		err := src.ScanFiltered(nil, preds, filter, func(c *columnar.Chunk) error {
			yieldedAt = append(yieldedAt, p.Now())
			for i, v := range got.Columns {
				v.AppendVector(c.Columns[i])
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		st = src.Stats()
	})
	requireIdentical(t, "straddling file", got, referenceFiltered(t, New(newClient(svc), Config{}, ref), nil, filter))
	// The open, then one window for both groups' first reads, then group 1's
	// payload: 2·lat, 3·lat (2·lat, 4·lat when each group had a first window
	// of its own).
	if want := []time.Duration{2 * lat, 3 * lat}; len(yieldedAt) != 2 || yieldedAt[0] != want[0] || yieldedAt[1] != want[1] {
		t.Errorf("groups yielded at %v, want %v: one request window shared by both groups, a second for the large one's payload", yieldedAt, want)
	}
	if st.PagesRead != twoPhasePages {
		t.Errorf("PagesRead = %d, want the two-phase read's %d: a payload page the filter emptied was decoded", st.PagesRead, twoPhasePages)
	}
	if st.PagesPruned != 3 || st.PagesFiltered != 3+largePages/2 {
		t.Errorf("pages pruned %d, filtered %d; want 3 and %d", st.PagesPruned, st.PagesFiltered, 3+largePages/2)
	}
}

// straddleGroup returns pages × pageRows rows of (k, f, p): k counts up from
// k0, f is 1 on a group's even pages and 0 on its odd ones, and p is a random
// float — eight bytes a row that neither encoding nor gzip shrinks.
func straddleGroup(k0, pageRows, pages int) *columnar.Chunk {
	schema := columnar.NewSchema(
		columnar.Field{Name: "k", Type: columnar.Int64},
		columnar.Field{Name: "f", Type: columnar.Int64},
		columnar.Field{Name: "p", Type: columnar.Float64},
	)
	n := pageRows * pages
	c := columnar.NewChunk(schema, n)
	rng := rand.New(rand.NewSource(int64(k0)))
	for i := 0; i < n; i++ {
		c.Columns[0].AppendInt64(int64(k0 + i))
		c.Columns[1].AppendInt64(int64(1 - i/pageRows%2))
		c.Columns[2].AppendFloat64(rng.Float64())
	}
	return c
}

func writeGroup(t *testing.T, c *columnar.Chunk, opts lpq.WriterOptions) []byte {
	t.Helper()
	raw, err := lpq.WriteFile(c.Schema, opts, c)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// spliceGroups joins the row groups of lpq files of one schema into one file:
// their column data back to back, then a footer listing every group at its
// new offset. The lpq writer compresses every group of a file alike, and
// this is how one file gets groups compressed two ways. The footer is encoded
// as lpq encodes it; lpq.OpenReader checks the result.
func spliceGroups(t *testing.T, files ...[]byte) []byte {
	t.Helper()
	uv := binary.AppendUvarint
	zz := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	f64 := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	var data, groups []byte
	var schema *columnar.Schema
	var nGroups, total int64
	for _, raw := range files {
		r, err := lpq.OpenReader(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		m := r.Meta()
		schema = m.Schema
		shift := int64(len(data))
		_, end := m.RowGroups[len(m.RowGroups)-1].ByteRange()
		data = append(data, raw[:end]...)
		for _, rg := range m.RowGroups {
			groups = uv(groups, uint64(rg.NumRows))
			for ci, cc := range rg.Columns {
				groups = uv(uv(uv(groups, uint64(cc.Offset+shift)), uint64(cc.CompressedLen)), uint64(cc.UncompressedLen))
				groups = append(groups, byte(cc.Encoding), byte(cc.Compression), 0)
				if st := cc.Stats; st.HasMinMax {
					groups[len(groups)-1] = 1
					groups = binary.LittleEndian.AppendUint64(groups, uint64(st.MinInt))
					groups = binary.LittleEndian.AppendUint64(groups, uint64(st.MaxInt))
					groups = f64(f64(groups, st.MinF), st.MaxF)
				}
				groups = uv(uv(groups, uint64(cc.DistinctEst)), uint64(cc.NullCount))
				groups = uv(groups, uint64(len(cc.Pages)))
				if len(cc.Pages) == 0 {
					continue
				}
				groups = uv(groups, uint64(cc.Pages[0].NumRows))
				for _, pg := range cc.Pages {
					groups = uv(uv(groups, uint64(pg.CompressedLen)), uint64(pg.UncompressedLen))
				}
				if !cc.Pages[0].Stats.HasMinMax {
					groups = append(groups, 0)
					continue
				}
				groups = append(groups, 1)
				for _, pg := range cc.Pages {
					if schema.Fields[ci].Type == columnar.Float64 {
						groups = f64(f64(groups, pg.Stats.MinF), pg.Stats.MaxF)
					} else {
						groups = uv(uv(groups, zz(pg.Stats.MinInt)), zz(pg.Stats.MaxInt))
					}
				}
			}
			nGroups++
			total += rg.NumRows
		}
	}
	footer := uv(nil, uint64(schema.Len()))
	for _, f := range schema.Fields {
		footer = append(uv(footer, uint64(len(f.Name))), f.Name...)
		footer = append(footer, byte(f.Type))
	}
	footer = uv(append(uv(footer, uint64(nGroups)), groups...), uint64(total))
	out := binary.LittleEndian.AppendUint32(append(data, footer...), uint32(len(footer)))
	out = append(out, "LPQ2"...)
	if _, err := lpq.OpenReader(bytes.NewReader(out), int64(len(out))); err != nil {
		t.Fatalf("spliced file: %v", err)
	}
	return out
}
