// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §6 for the experiment index). Paper-scale
// results come from the perfsim discrete-event simulator over the Blue
// Gene machine models; the Real* variants execute the actual Go kernels on
// the local machine at laptop scale. Each generator returns a Table that
// renders as fixed-width text.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment: a title, column headers, string rows and
// free-form notes (paper comparison, caveats).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as fixed-width text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// An Experiment is one entry of the list lbmbench runs: its name, its
// paper-scale form (perfsim over the Blue Gene models) and its -real form
// (the Go kernels on the local machine). Either form may be absent.
type Experiment struct {
	Name string
	// Machines lists the machines GenerateAll runs the paper-scale form
	// on; nil runs it once, with no machine.
	Machines []string
	// Paper renders the paper-scale form for one machine.
	Paper func(machine string) ([]*Table, error)
	// Real renders the -real form from lbmbench's run description.
	Real func(Run) (*Table, error)
	// Local marks an experiment whose paper-scale form runs the real
	// kernels too (collision, on D3Q19): lbmbench runs its Real form with
	// or without -real, so its -model applies either way.
	Local bool
}

// list is every experiment, in the order lbmbench's -exp help and -exp all
// show them.
var list = []Experiment{
	{Name: "table1", Paper: func(string) ([]*Table, error) { return Table1(), nil }},
	{Name: "table2", Paper: func(string) ([]*Table, error) { return []*Table{Table2(), SectionIIICBounds()}, nil }},
	{Name: "fig8", Machines: []string{"bgp", "bgq"}, Paper: func(m string) ([]*Table, error) { return one(Fig8(m)) }, Real: RealFig8},
	{Name: "fig9", Machines: []string{"bgp"}, Paper: func(m string) ([]*Table, error) { return one(Fig9(m)) }, Real: RealFig9},
	{Name: "fig10", Paper: func(string) ([]*Table, error) { return Fig10() }, Real: RealFig10},
	{Name: "table3", Paper: func(string) ([]*Table, error) { return one(Table3()) }},
	{Name: "table4", Paper: func(string) ([]*Table, error) { return one(Table4()) }},
	{Name: "fig11", Machines: []string{"bgp", "bgq"}, Paper: func(m string) ([]*Table, error) { return one(Fig11(m)) }, Real: RealFig11},
	{Name: "decomp", Machines: []string{"bgq"}, Paper: func(m string) ([]*Table, error) { return one(DecompTable(m)) }},
	{Name: "collision", Local: true,
		Paper: func(string) ([]*Table, error) { return one(CollisionTable("D3Q19")) },
		Real:  RealCollision},
	{Name: "threads", Real: RealThreads},
	{Name: "balance", Real: RealBalance},
}

func one(t *Table, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// List returns every experiment in the order GenerateAll renders them.
func List() []Experiment { return list }

// Lookup returns the experiment named name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range list {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the experiments Generate accepts: those with a paper-scale
// form.
func Names() []string {
	var out []string
	for _, e := range list {
		if e.Paper != nil {
			out = append(out, e.Name)
		}
	}
	return out
}

// Generate renders one experiment's paper-scale form. The machine ("bgp"
// or "bgq") applies to the experiments that list Machines; the others run
// on the machines the paper used.
func Generate(name, machineName string) ([]*Table, error) {
	if e, ok := Lookup(name); ok && e.Paper != nil {
		return e.Paper(machineName)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// GenerateAll renders every paper-scale form, on each of its machines.
func GenerateAll() ([]*Table, error) {
	var out []*Table
	for _, e := range list {
		if e.Paper == nil {
			continue
		}
		machines := e.Machines
		if machines == nil {
			machines = []string{""}
		}
		for _, m := range machines {
			ts, err := e.Paper(m)
			if err != nil {
				return nil, err
			}
			out = append(out, ts...)
		}
	}
	return out, nil
}
