package lang

import "strconv"

// Position is a source position in an event-description text: 1-based line
// and column of the first character of a construct. The zero Position means
// "position unknown", which is what programmatically constructed terms carry.
type Position struct {
	Line int32 `json:"line"`
	Col  int32 `json:"col"`
}

// IsValid reports whether p points at a real source location.
func (p Position) IsValid() bool { return p.Line > 0 }

// String renders the position as "line:col", or "-" when unknown.
func (p Position) String() string {
	if !p.IsValid() {
		return "-"
	}
	return strconv.Itoa(int(p.Line)) + ":" + strconv.Itoa(int(p.Col))
}

// Before imposes a total order on positions: by line, then column. Unknown
// positions sort first.
func (p Position) Before(q Position) bool {
	if p.Line != q.Line {
		return p.Line < q.Line
	}
	return p.Col < q.Col
}
