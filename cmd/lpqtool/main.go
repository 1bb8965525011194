// Command lpqtool generates and inspects lpq ("Lambada Parquet") files.
//
// Usage:
//
//	lpqtool gen -o lineitem.lpq -sf 0.01 -gzip
//	lpqtool inspect lineitem.lpq
package main

import (
	"flag"
	"fmt"
	"os"

	"lambada/internal/lpq"
	"lambada/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lpqtool gen|inspect|convert [flags]")
	os.Exit(2)
}

// convert re-encodes a LINEITEM CSV (as produced by `lpqtool gen -csv` or
// external tools) into lpq.
func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("i", "lineitem.csv", "input CSV (LINEITEM schema)")
	out := fs.String("o", "lineitem.lpq", "output lpq file")
	gz := fs.Bool("gzip", true, "GZIP compression")
	rows := fs.Int("rowgroup", 65536, "rows per row group")
	fs.Parse(args)

	comp := lpq.None
	if *gz {
		comp = lpq.Gzip
	}
	src, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	n, err := convertCSV(src, dst, tpch.Schema(), lpq.WriterOptions{RowGroupRows: *rows, Compression: comp})
	if err != nil {
		fatal(err)
	}
	if err := dst.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("converted %d rows: %s -> %s\n", n, *in, *out)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("o", "lineitem.lpq", "output file")
	sf := fs.Float64("sf", 0.01, "TPC-H scale factor")
	gz := fs.Bool("gzip", false, "GZIP compression")
	rows := fs.Int("rowgroup", 65536, "rows per row group")
	seed := fs.Int64("seed", 1, "generation seed")
	asCSV := fs.Bool("csv", false, "emit CSV instead of lpq")
	fs.Parse(args)

	comp := lpq.None
	if *gz {
		comp = lpq.Gzip
	}
	data := tpch.Gen{SF: *sf, Seed: *seed}.Generate()
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if *asCSV {
		if err := writeCSV(f, data); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d rows (CSV)\n", *out, data.NumRows())
		return
	}
	w := lpq.NewWriter(f, tpch.Schema(), lpq.WriterOptions{RowGroupRows: *rows, Compression: comp})
	if err := w.Write(data); err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d rows, %d row groups, %d bytes\n", *out, data.NumRows(), w.Meta().NumRowGroups(), w.Size())
}

func inspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	verbose := fs.Bool("v", false, "per-column-chunk detail")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lpqtool inspect [-v] <file>")
		os.Exit(2)
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		fatal(err)
	}
	r, err := lpq.OpenReader(f, st.Size())
	if err != nil {
		fatal(err)
	}
	m := r.Meta()
	fmt.Printf("%s: %d bytes, %d rows, %d row groups\n", path, st.Size(), m.TotalRows, m.NumRowGroups())
	fmt.Printf("schema: %s\n", m.Schema)
	for g, rg := range m.RowGroups {
		lo, hi := rg.ByteRange()
		fmt.Printf("row group %d: %d rows, bytes [%d, %d)\n", g, rg.NumRows, lo, hi)
		if !*verbose {
			continue
		}
		for c, cc := range rg.Columns {
			field := m.Schema.Fields[c]
			stats := ""
			if cc.Stats.HasMinMax {
				switch {
				case field.Type.String() == "DOUBLE":
					stats = fmt.Sprintf(" min=%g max=%g", cc.Stats.MinF, cc.Stats.MaxF)
				default:
					stats = fmt.Sprintf(" min=%d max=%d", cc.Stats.MinInt, cc.Stats.MaxInt)
				}
			}
			fmt.Printf("  %-18s %-5s %-4s %8d -> %8d bytes%s\n",
				field.Name, cc.Encoding, cc.Compression, cc.UncompressedLen, cc.CompressedLen, stats)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lpqtool:", err)
	os.Exit(1)
}
