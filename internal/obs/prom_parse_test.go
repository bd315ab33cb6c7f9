package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromSample is one parsed sample line of an exposition document.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePrometheus parses a Prometheus text exposition (format 0.0.4)
// document: it returns the `# TYPE` declarations (metric name -> type)
// and every sample in document order, so the tests assert the format
// WritePrometheus emits rather than string matches. It accepts exactly the
// subset the writer emits plus optional timestamps and ignores other
// comments.
func ParsePrometheus(r io.Reader) (map[string]string, []PromSample, error) {
	types := map[string]string{}
	var samples []PromSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				types[fields[2]] = fields[3]
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return types, samples, nil
}

// parsePromSample parses one `name{labels} value [timestamp]` line.
func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq <= 0 {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := strings.TrimSpace(rest[:eq])
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			val, n, err := unescapePromLabelValue(rest[1:])
			if err != nil {
				return s, fmt.Errorf("%v in %q", err, line)
			}
			s.Labels[key] = val
			rest = rest[1+n:]
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// unescapePromLabelValue consumes an escaped label value up to (and
// including) its closing quote, returning the value and how many input
// bytes were consumed.
func unescapePromLabelValue(in string) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(in); i++ {
		switch in[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(in) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			i++
			switch in[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(in[i])
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", in[i])
			}
		default:
			b.WriteByte(in[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parsePromValue parses a sample value, accepting the exposition
// spellings of the infinities and NaN.
func parsePromValue(tok string) (float64, error) {
	switch tok {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(tok, 64)
}
