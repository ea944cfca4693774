package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one block of an experiment's text output: title lines, a
// header over rows of cells, then verdict lines. Every part is
// optional; a table without columns is plain text.
type Table struct {
	Title   []string
	Cols    []Col
	Rows    [][]any
	Verdict []string
	// Fail, when non-empty, names a claim the run broke that a test
	// also asserts; Render writes the table, then returns it as an error.
	Fail string
}

// Col is one column: its header, its width (negative pads on the
// right, 0 not at all) and the fmt verb its cells are formatted with
// ("%v" when empty). A string cell is taken as formatted already, so a
// "-" can stand in for a number.
type Col struct {
	Head  string
	Width int
	Fmt   string
}

// Render writes the tables in order with a blank line between
// consecutive ones and one space between columns. It returns the write
// error, else the first table's Fail.
func Render(w io.Writer, ts ...Table) error {
	var b strings.Builder
	fail := ""
	for i, t := range ts {
		if i > 0 {
			b.WriteByte('\n')
		}
		writeLines(&b, t.Title)
		if len(t.Cols) > 0 {
			head := make([]any, len(t.Cols))
			for j, c := range t.Cols {
				head[j] = c.Head
			}
			for _, row := range append([][]any{head}, t.Rows...) {
				for j, c := range t.Cols {
					cell, ok := row[j].(string)
					if !ok {
						cell = fmt.Sprintf(cmp.Or(c.Fmt, "%v"), row[j])
					}
					if j > 0 {
						b.WriteByte(' ')
					}
					fmt.Fprintf(&b, "%*s", c.Width, cell)
				}
				b.WriteByte('\n')
			}
		}
		writeLines(&b, t.Verdict)
		fail = cmp.Or(fail, t.Fail)
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	if fail != "" {
		return errors.New(fail)
	}
	return nil
}

// tabulate lays out one row per item, cells(item) giving its cells,
// under cols and the title lines.
func tabulate[T any](items []T, cells func(T) []any, cols []Col, title ...string) Table {
	t := Table{Title: title, Cols: cols}
	for _, x := range items {
		t.Rows = append(t.Rows, cells(x))
	}
	return t
}

func writeLines(b *strings.Builder, lines []string) {
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// counters renders a Stats dump as "[label] what counters:" over its
// lines, indented.
func counters(label, what string, stats fmt.Stringer) Table {
	t := Table{Title: []string{fmt.Sprintf("[%s] %s counters:", label, what)}}
	for _, l := range strings.Split(strings.TrimRight(stats.String(), "\n"), "\n") {
		t.Title = append(t.Title, "  "+l)
	}
	return t
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

// dashDur is fmtDur with "-" for a duration never measured.
func dashDur(d time.Duration) string {
	if d <= 0 {
		return "-"
	}
	return fmtDur(d)
}
