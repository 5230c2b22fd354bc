// Package report renders aligned ASCII tables for the experiment harness
// (the cmd tools and EXPERIMENTS.md generation), and writes the JSON
// artifacts those tables summarize.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteJSON writes v in the two-space-indented form of the committed
// BENCH_* artifacts.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	notes   []string
	aligned bool
}

// NewTable starts a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// Row appends one row; values are rendered with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// Note appends a footnote line.
func (t *Table) Note(format string, args ...any) *Table {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
	return t
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
		sb.WriteString(strings.Repeat("=", len(t.Title)))
		sb.WriteByte('\n')
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i == cols-1 {
				sb.WriteString(cell)
			} else {
				sb.WriteString(fmt.Sprintf("%-*s  ", width[i], cell))
			}
		}
		sb.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		total := 0
		for _, w := range width {
			total += w + 2
		}
		sb.WriteString(strings.Repeat("-", total))
		sb.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		sb.WriteString("  note: " + n + "\n")
	}
	return sb.String()
}

// KV renders a two-column key/value block (used for Table 1).
type KV struct {
	Title string
	pairs [][2]string
	sects []int // indices where a section header row sits
}

// NewKV starts a key/value block.
func NewKV(title string) *KV { return &KV{Title: title} }

// Section inserts a section header.
func (k *KV) Section(name string) *KV {
	k.sects = append(k.sects, len(k.pairs))
	k.pairs = append(k.pairs, [2]string{name, ""})
	return k
}

// Add appends one key/value pair.
func (k *KV) Add(key string, format string, args ...any) *KV {
	k.pairs = append(k.pairs, [2]string{key, fmt.Sprintf(format, args...)})
	return k
}

// String renders the block.
func (k *KV) String() string {
	isSection := make(map[int]bool)
	for _, i := range k.sects {
		isSection[i] = true
	}
	width := 0
	for i, p := range k.pairs {
		if !isSection[i] && len(p[0]) > width {
			width = len(p[0])
		}
	}
	var sb strings.Builder
	if k.Title != "" {
		sb.WriteString(k.Title + "\n" + strings.Repeat("=", len(k.Title)) + "\n")
	}
	for i, p := range k.pairs {
		if isSection[i] {
			sb.WriteString("\n[" + p[0] + "]\n")
			continue
		}
		sb.WriteString(fmt.Sprintf("  %-*s  %s\n", width, p[0], p[1]))
	}
	return sb.String()
}
