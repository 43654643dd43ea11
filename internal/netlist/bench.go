package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
)

// ParseBench reads a circuit in ISCAS-89 .bench format:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G10 = NAND(G0, G4)
//	G5  = DFF(G10)
//
// Keywords are case-insensitive; whitespace is free-form.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return ParseBenchString(name, text.String())
}

// ParseBenchString parses .bench text from a string. The parser cuts
// names out of text without copying them; Build copies them once into the
// circuit's own string, so the circuit does not keep text alive.
func ParseBenchString(name, text string) (*Circuit, error) {
	// One gate per line at most, and no line that defines one is shorter
	// than "a=b(c)\n", whatever the text is padded with.
	p := benchParser{b: newBuilder(name, min(strings.Count(text, "\n")+1, len(text)/7))}
	for lineNo := 1; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line, _, _ = strings.Cut(line, "#")
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, lineNo, err)
		}
	}
	return p.b.Build()
}

// benchParser feeds .bench lines to a Builder.
type benchParser struct {
	b *Builder
	// args is the current line's argument list, reused from line to line;
	// the builder copies what it keeps.
	args []string
}

// line adds one declaration or gate, comment and outer space stripped.
func (p *benchParser) line(line string) error {
	if eq := strings.IndexByte(line, '='); eq >= 0 {
		lhs := strings.TrimSpace(line[:eq])
		op, err := p.call(strings.TrimSpace(line[eq+1:]))
		if err != nil {
			return err
		}
		gop, err := logic.ParseOp(op)
		if err != nil {
			return err
		}
		if gop == logic.OpDFF && len(p.args) != 1 {
			return fmt.Errorf("DFF %q needs exactly one input, got %d", lhs, len(p.args))
		}
		p.b.define(lhs, gop, p.args)
		return nil
	}
	op, err := p.call(line)
	if err != nil {
		return err
	}
	if len(p.args) != 1 {
		return fmt.Errorf("%s declaration needs one signal, got %d", op, len(p.args))
	}
	switch strings.ToUpper(op) {
	case "INPUT":
		p.b.Input(p.args[0])
	case "OUTPUT":
		p.b.Output(p.args[0])
	default:
		return fmt.Errorf("unrecognized declaration %q", op)
	}
	return nil
}

// call splits "OP(a, b, c)" into its keyword, returned, and its
// arguments, left in p.args.
func (p *benchParser) call(s string) (op string, err error) {
	p.args = p.args[:0]
	open := strings.IndexByte(s, '(')
	if open < 0 || s[len(s)-1] != ')' {
		return "", fmt.Errorf("malformed expression %q", s)
	}
	op = strings.TrimSpace(s[:open])
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) == "" {
		return op, nil
	}
	for more := true; more; {
		var a string
		a, inner, more = strings.Cut(inner, ",")
		if a = strings.TrimSpace(a); a == "" {
			return "", fmt.Errorf("empty argument in %q", s)
		}
		p.args = append(p.args, a)
	}
	return op, nil
}

// WriteBench serializes the circuit in .bench format. Parsing the output
// reproduces an isomorphic circuit (round-trip property).
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Gates[id].Name)
	}
	for _, id := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Gates[id].Name)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op == logic.OpInput {
			continue
		}
		names := make([]string, len(g.Fanin))
		for j, f := range g.Fanin {
			names[j] = c.Gates[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Name, g.Op, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// BenchString renders the circuit as .bench text.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}
