package netexec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// DecodeLoad parses the JSON body of a front end's POST /load,
//
//	{"table": "events", "rows": [{"dims": [3, 7], "metrics": [1.5]}, ...]}
//
// without reflection. Every row's dimensions land in one flat []uint32 and
// its metrics in one flat []float64; each returned row is a three-index
// sub-slice of them, so a batch costs a handful of growing buffers instead
// of a struct and two slices per row.
//
// It accepts what encoding/json would decode into that shape, narrowed
// three ways: the keys table, rows, dims and metrics match exactly
// (case-sensitive), none of them repeats within its object, and nothing
// but whitespace follows the body's value. The keys may come in any order;
// unknown keys are skipped whatever valid JSON they hold. null reads as it
// does in encoding/json: a null body, table, rows, row, dims or metrics is
// empty, and a null element is 0. A dims element is an integer in
// [0, 2^32) with no sign, fraction or exponent; a metrics element is any
// JSON number a float64 holds. The decoder allocates in proportion to the
// bytes it has read, never on a length the body claims.
func DecodeLoad(r io.Reader) (table string, dims [][]uint32, metrics [][]float64, err error) {
	var body bytes.Buffer // grows by doubling, where io.ReadAll grows by a quarter
	if _, err := body.ReadFrom(r); err != nil {
		return "", nil, nil, fmt.Errorf("netexec: /load body: %w", err)
	}
	d := loadDecoder{data: body.Bytes()}
	if table, err = d.body(); err != nil {
		return "", nil, nil, err
	}
	dims = make([][]uint32, len(d.rows))
	metrics = make([][]float64, len(d.rows))
	prev := loadRow{}
	for i, row := range d.rows {
		dims[i] = d.dims[prev.dims:row.dims:row.dims]
		metrics[i] = d.mets[prev.mets:row.mets:row.mets]
		prev = row
	}
	return table, dims, metrics, nil
}

// maxLoadDepth is encoding/json's nesting limit: the body's own object is
// depth 1.
const maxLoadDepth = 10000

// loadDecoder is a recursive-descent parser over a whole /load body.
type loadDecoder struct {
	data  []byte
	off   int
	depth int
	// str holds a string that needed unescaping; it is reused, so a key or
	// value it backs is valid until the next string is read.
	str  []byte
	dims []uint32
	mets []float64
	rows []loadRow
}

// loadRow is where one row's values end in the flat dims and metrics
// buffers; they start where the previous row's end.
type loadRow struct{ dims, mets int }

func (d *loadDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("netexec: /load body at byte %d: %s", d.off, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *loadDecoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// null consumes a null literal if one is next.
func (d *loadDecoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *loadDecoder) literal(lit string) error {
	if len(d.data)-d.off < len(lit) || string(d.data[d.off:d.off+len(lit)]) != lit {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// open consumes the '{' or '[' that must come next.
func (d *loadDecoder) open(c byte, what string) error {
	if d.peek() != c {
		return d.errorf("%s does not open with %c", what, c)
	}
	d.off++
	if d.depth++; d.depth > maxLoadDepth {
		return d.errorf("nested deeper than %d", maxLoadDepth)
	}
	return nil
}

// member reads the next member's key and colon of the object open opened;
// ok is false once the closing brace is consumed.
func (d *loadDecoder) member(first bool) (key []byte, ok bool, err error) {
	c := d.peek()
	switch {
	case c == '}':
		d.off++
		d.depth--
		return nil, false, nil
	case !first && c == ',':
		d.off++
		c = d.peek()
	case !first:
		return nil, false, d.errorf("want , or } after an object member")
	}
	if c != '"' {
		return nil, false, d.errorf("want an object key")
	}
	if key, err = d.string(); err != nil {
		return nil, false, err
	}
	if d.peek() != ':' {
		return nil, false, d.errorf("want : after an object key")
	}
	d.off++
	return key, true, nil
}

// elem reports whether another element follows in the array open opened,
// consuming the separator before it or the closing bracket.
func (d *loadDecoder) elem(first bool) (bool, error) {
	switch c := d.peek(); {
	case c == ']' && first:
	case first:
		return true, nil
	case c == ',':
		d.off++
		return true, nil
	case c != ']':
		return false, d.errorf("want , or ] after an array element")
	}
	d.off++
	d.depth--
	return false, nil
}

// string reads a string literal and returns its unescaped bytes, with
// encoding/json's repairs: an invalid UTF-8 byte or an unpaired surrogate
// escape reads as U+FFFD. The bytes alias the body or d.str.
func (d *loadDecoder) string() ([]byte, error) {
	d.off++ // the opening quote
	start := d.off
	for d.off < len(d.data) {
		c := d.data[d.off]
		if c == '"' {
			d.off++
			return d.data[start : d.off-1], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		d.off++
	}
	d.str = append(d.str[:0], d.data[start:d.off]...)
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.str, nil
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c == '\\':
			if err := d.escape(); err != nil {
				return nil, err
			}
		case c < utf8.RuneSelf:
			d.str = append(d.str, c)
			d.off++
		default:
			r, size := utf8.DecodeRune(d.data[d.off:])
			d.str = utf8.AppendRune(d.str, r)
			d.off += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// escape appends the escape sequence at d.off to d.str.
func (d *loadDecoder) escape() error {
	if d.off+1 >= len(d.data) {
		return d.errorf("unterminated string")
	}
	c := d.data[d.off+1]
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		d.str = append(d.str, "\"\\/\b\f\n\r\t"[i])
		d.off += 2
		return nil
	}
	if c != 'u' {
		return d.errorf("invalid escape \\%c", c)
	}
	r := hex4(d.data[d.off:])
	if r < 0 {
		return d.errorf("invalid \\u escape")
	}
	d.off += 6
	if utf16.IsSurrogate(r) {
		if dec := utf16.DecodeRune(r, hex4(d.data[d.off:])); dec != unicode.ReplacementChar {
			d.str = utf8.AppendRune(d.str, dec)
			d.off += 6
			return nil
		}
		r = unicode.ReplacementChar
	}
	d.str = utf8.AppendRune(d.str, r)
	return nil
}

// hex4 decodes a \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// number reads a number literal; integer reports that it has no fraction
// or exponent.
func (d *loadDecoder) number() (num []byte, integer bool, err error) {
	start := d.off
	if d.at('-') {
		d.off++
	}
	if d.at('0') {
		d.off++
	} else if !d.digits() {
		return nil, false, d.errorf("want a value")
	}
	integer = true
	if d.at('.') {
		d.off++
		if !d.digits() {
			return nil, false, d.errorf("want a digit after the decimal point")
		}
		integer = false
	}
	if d.at('e') || d.at('E') {
		d.off++
		if d.at('+') || d.at('-') {
			d.off++
		}
		if !d.digits() {
			return nil, false, d.errorf("want a digit in the exponent")
		}
		integer = false
	}
	return d.data[start:d.off], integer, nil
}

// at reports whether the byte at d.off is c.
func (d *loadDecoder) at(c byte) bool { return d.off < len(d.data) && d.data[d.off] == c }

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *loadDecoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// skip reads and discards any one value.
func (d *loadDecoder) skip() error {
	switch d.peek() {
	case '{':
		if err := d.open('{', "value"); err != nil {
			return err
		}
		for first := true; ; first = false {
			_, ok, err := d.member(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.open('[', "value"); err != nil {
			return err
		}
		for first := true; ; first = false {
			ok, err := d.elem(first)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.string()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, _, err := d.number()
	return err
}

// body reads the whole /load body and returns its table.
func (d *loadDecoder) body() (table string, err error) {
	if null, err := d.null(); err != nil || null {
		return "", d.end(err)
	}
	if err := d.open('{', "body"); err != nil {
		return "", err
	}
	var seenTable, seenRows bool
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return "", err
		}
		if !ok {
			return table, d.end(nil)
		}
		switch string(key) {
		case "table":
			if err = d.once(&seenTable, "table"); err == nil {
				table, err = d.table()
			}
		case "rows":
			if err = d.once(&seenRows, "rows"); err == nil {
				err = d.rowList()
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return "", err
		}
	}
}

// once rejects a second occurrence of a contract key in one object.
func (d *loadDecoder) once(seen *bool, key string) error {
	if *seen {
		return d.errorf("key %q repeats", key)
	}
	*seen = true
	return nil
}

// end checks that only whitespace follows the body's value.
func (d *loadDecoder) end(err error) error {
	if err == nil && d.peek() != 0 {
		err = d.errorf("data after the body's value")
	}
	return err
}

func (d *loadDecoder) table() (string, error) {
	if null, err := d.null(); err != nil || null {
		return "", err
	}
	if d.peek() != '"' {
		return "", d.errorf("table is not a string")
	}
	s, err := d.string()
	return string(s), err
}

func (d *loadDecoder) rowList() error {
	if null, err := d.null(); err != nil || null {
		return err
	}
	if err := d.open('[', "rows"); err != nil {
		return err
	}
	for first := true; ; first = false {
		if ok, err := d.elem(first); err != nil || !ok {
			return err
		}
		start := d.off
		if err := d.row(); err != nil {
			return err
		}
		if first {
			d.reserve(d.off - start + 1)
		}
	}
}

// reserve sizes the row and flat buffers for the rest of the body on the
// first row's shape: as many rows as its bytes (rowBytes, with the comma)
// fit in the bytes left. A value takes at least two bytes with its comma,
// so the reservation stays within a small multiple of the body's size.
func (d *loadDecoder) reserve(rowBytes int) {
	n := (len(d.data)-d.off)/rowBytes + 1
	d.rows = slices.Grow(d.rows, n)
	d.dims = slices.Grow(d.dims, n*len(d.dims))
	d.mets = slices.Grow(d.mets, n*len(d.mets))
}

func (d *loadDecoder) row() error {
	if null, err := d.null(); err != nil || null {
		d.rows = append(d.rows, loadRow{len(d.dims), len(d.mets)})
		return err
	}
	if err := d.open('{', "a row"); err != nil {
		return err
	}
	var seenDims, seenMets bool
	for first := true; ; first = false {
		key, ok, err := d.member(first)
		if err != nil {
			return err
		}
		if !ok {
			d.rows = append(d.rows, loadRow{len(d.dims), len(d.mets)})
			return nil
		}
		switch string(key) {
		case "dims":
			if err = d.once(&seenDims, "dims"); err == nil {
				err = d.values("dims", true)
			}
		case "metrics":
			if err = d.once(&seenMets, "metrics"); err == nil {
				err = d.values("metrics", false)
			}
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// values reads a row's dims or metrics array into the flat buffers.
func (d *loadDecoder) values(what string, dims bool) error {
	if null, err := d.null(); err != nil || null {
		return err
	}
	if err := d.open('[', what); err != nil {
		return err
	}
	for first := true; ; first = false {
		if ok, err := d.elem(first); err != nil || !ok {
			return err
		}
		null, err := d.null()
		switch {
		case err != nil:
		case dims:
			err = d.dim(null)
		default:
			err = d.metric(null)
		}
		if err != nil {
			return err
		}
	}
}

// dim appends one dims element: an unsigned integer below 2^32.
func (d *loadDecoder) dim(null bool) error {
	if null {
		d.dims = append(d.dims, 0)
		return nil
	}
	num, integer, err := d.number()
	if err != nil {
		return err
	}
	if !integer || num[0] == '-' || len(num) > 10 {
		return d.errorf("dimension %s is not an integer in [0, 2^32)", num)
	}
	var v uint64
	for _, c := range num {
		v = v*10 + uint64(c-'0')
	}
	if v > math.MaxUint32 {
		return d.errorf("dimension %s is not an integer in [0, 2^32)", num)
	}
	d.dims = append(d.dims, uint32(v))
	return nil
}

// metric appends one metrics element. An integer of up to 15 digits is
// exact in a float64, so it skips strconv.
func (d *loadDecoder) metric(null bool) error {
	if null {
		d.mets = append(d.mets, 0)
		return nil
	}
	num, integer, err := d.number()
	if err != nil {
		return err
	}
	digits := num
	if num[0] == '-' {
		digits = num[1:]
	}
	if !integer || len(digits) > 15 {
		f, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return d.errorf("metric %s: %v", num, err)
		}
		d.mets = append(d.mets, f)
		return nil
	}
	var v uint64
	for _, c := range digits {
		v = v*10 + uint64(c-'0')
	}
	f := float64(v)
	if num[0] == '-' {
		f = -f
	}
	d.mets = append(d.mets, f)
	return nil
}
