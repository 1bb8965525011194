package main

// CSV is the uncompressed baseline format of the paper's evaluation (§5.1:
// "in uncompressed CSV, the size of the relation is 705 GiB"). This file is
// the ingestion path a deployment needs: CSV → columnar chunks → lpq files.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lambada/internal/columnar"
	"lambada/internal/lpq"
)

// writeCSV serializes a chunk as CSV with a header row.
func writeCSV(w io.Writer, c *columnar.Chunk) error {
	bw := bufio.NewWriter(w)
	for i, f := range c.Schema.Fields {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(f.Name); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	n := c.NumRows()
	for row := 0; row < n; row++ {
		for j, col := range c.Columns {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			var s string
			switch c.Schema.Fields[j].Type {
			case columnar.Int64:
				s = strconv.FormatInt(col.Int64s[row], 10)
			case columnar.Float64:
				s = strconv.FormatFloat(col.Float64s[row], 'g', -1, 64)
			default:
				s = strconv.FormatBool(col.Bools[row])
			}
			if _, err := bw.WriteString(s); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chunkRows is the number of rows readCSV yields at a time.
const chunkRows = 65536

// readCSV parses CSV whose header names schema's columns, in order, into
// chunks of chunkRows rows (the last one shorter).
func readCSV(r io.Reader, schema *columnar.Schema, yield func(*columnar.Chunk) error) error {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := readLine(br)
	if err != nil {
		return fmt.Errorf("csv: reading header: %w", err)
	}
	names := strings.Split(header, ",")
	if schema.Len() != len(names) {
		return fmt.Errorf("csv: header has %d columns, schema %d", len(names), schema.Len())
	}
	for i, n := range names {
		if schema.Fields[i].Name != strings.TrimSpace(n) {
			return fmt.Errorf("csv: header column %d is %q, schema says %q", i, n, schema.Fields[i].Name)
		}
	}

	chunk := columnar.NewChunk(schema, chunkRows)
	lineNo := 1
	for {
		line, err := readLine(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		lineNo++
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != schema.Len() {
			return fmt.Errorf("csv: line %d has %d fields, want %d", lineNo, len(fields), schema.Len())
		}
		for j, s := range fields {
			s = strings.TrimSpace(s)
			switch schema.Fields[j].Type {
			case columnar.Int64:
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return fmt.Errorf("csv: line %d column %q: %w", lineNo, schema.Fields[j].Name, err)
				}
				chunk.Columns[j].AppendInt64(v)
			case columnar.Float64:
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("csv: line %d column %q: %w", lineNo, schema.Fields[j].Name, err)
				}
				chunk.Columns[j].AppendFloat64(v)
			default:
				v, err := strconv.ParseBool(s)
				if err != nil {
					return fmt.Errorf("csv: line %d column %q: %w", lineNo, schema.Fields[j].Name, err)
				}
				chunk.Columns[j].AppendBool(v)
			}
		}
		if chunk.NumRows() >= chunkRows {
			if err := yield(chunk); err != nil {
				return err
			}
			chunk = columnar.NewChunk(schema, chunkRows)
		}
	}
	if chunk.NumRows() > 0 {
		return yield(chunk)
	}
	return nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err == io.EOF && line != "" {
		return strings.TrimRight(line, "\r\n"), nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

// convertCSV re-encodes CSV into an lpq file, the ETL step a Lambada adopter
// runs once so that queries benefit from column pruning and statistics.
func convertCSV(r io.Reader, w io.Writer, schema *columnar.Schema, opts lpq.WriterOptions) (rows int64, err error) {
	lw := lpq.NewWriter(w, schema, opts)
	err = readCSV(r, schema, func(c *columnar.Chunk) error {
		rows += int64(c.NumRows())
		return lw.Write(c)
	})
	if err != nil {
		return rows, err
	}
	return rows, lw.Close()
}
