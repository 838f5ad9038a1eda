package serve

// Request decoding. Every analysis request is one small JSON object, and
// nearly every client writes it the way json.Marshal does. decode reads a
// body whose Content-Length is within the cap into one exact-size buffer
// and fills the request in one strict pass over the plain form; any other
// body, and any body without a usable length, goes to the json.Decoder
// path (decodeJSON), which stays the only producer of 400 and 413 messages.
//
// The plain form is an object of known lowercase keys, each at most once,
// whose values are strings (with the standard escapes; \u escapes outside
// the surrogate range) or, for site, an integer, followed by nothing but
// whitespace. On that form the pass and the decoder agree on every field,
// which FuzzDecodeRequest checks against the decoder.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"unicode/utf8"
)

// decode parses a JSON request body under the body-size cap into into, a
// *submission, *pointstoRequest or *cfiTargetsRequest.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) *apiError {
	n := r.ContentLength
	if n < 0 || n > s.cfg.MaxBodyBytes {
		return decodeJSON(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), into)
	}
	// Not io.ReadFull: it turns a short body's io.EOF into
	// io.ErrUnexpectedEOF, and the decoder words the two differently.
	body := make([]byte, n)
	k := 0
	var err error
	for k < len(body) && err == nil {
		var m int
		m, err = r.Body.Read(body[k:])
		k += m
	}
	if err != nil && (k < len(body) || err != io.EOF) {
		// The decoder sees what the body yielded, then its error.
		return decodeJSON(io.MultiReader(bytes.NewReader(body[:k]), errReader{err}), into)
	}
	if decodePlain(body, into) {
		return nil
	}
	return decodeJSON(bytes.NewReader(body), into)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJSON decodes one JSON value from body into into, rejecting unknown
// fields.
func decodeJSON(body io.Reader, into any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return &apiError{Status: http.StatusRequestEntityTooLarge, Kind: "oversized",
				Msg: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)}
		}
		return &apiError{Status: http.StatusBadRequest, Kind: "validation",
			Msg: "malformed request body: " + err.Error()}
	}
	return nil
}

// plainField is one string member found by decodePlain: its bytes between
// the quotes, and whether any of them is an escape.
type plainField struct {
	lo, hi  int
	escaped bool
	seen    bool
}

// decodePlain fills into from a body in the plain form and reports true,
// or reports false having written nothing. Each string field is allocated
// once: an escaped one is unescaped in place first, which only happens
// once the whole body has passed.
func decodePlain(body []byte, into any) bool {
	var sub *submission
	var fn, reg *string
	var site **int
	switch v := into.(type) {
	case *submission:
		sub = v
	case *pointstoRequest:
		sub, fn, reg = &v.submission, &v.Fn, &v.Reg
	case *cfiTargetsRequest:
		sub, site = &v.submission, &v.Site
	default:
		return false
	}
	var fields [5]plainField // name, source, config, fn, reg
	var siteVal int
	siteSeen := false
	p := plainScanner{b: body}
	if !p.skip('{') {
		return false
	}
	for first := true; !p.skip('}'); first = false {
		if !first && !p.skip(',') {
			return false
		}
		p.space()
		lo, hi, escaped, ok := p.str()
		if !ok || escaped || !p.skip(':') {
			return false
		}
		p.space()
		var f *plainField
		switch string(body[lo:hi]) {
		case "name":
			f = &fields[0]
		case "source":
			f = &fields[1]
		case "config":
			f = &fields[2]
		case "fn", "reg":
			if fn == nil {
				return false
			}
			f = &fields[3]
			if body[lo] == 'r' {
				f = &fields[4]
			}
		case "site":
			if site == nil || siteSeen {
				return false
			}
			if siteVal, ok = p.integer(); !ok {
				return false
			}
			siteSeen = true
			continue
		default:
			return false
		}
		if f.seen {
			return false
		}
		if f.lo, f.hi, f.escaped, ok = p.str(); !ok {
			return false
		}
		f.seen = true
	}
	if p.space(); p.i != len(body) {
		return false
	}
	for i, dst := range []*string{&sub.Name, &sub.Source, &sub.Config, fn, reg} {
		if f := fields[i]; f.seen {
			raw := body[f.lo:f.hi]
			if f.escaped {
				raw = unescapeInPlace(raw)
			}
			*dst = string(raw)
		}
	}
	if siteSeen {
		v := siteVal
		*site = &v
	}
	return true
}

// plainScanner walks a body for decodePlain.
type plainScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *plainScanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// skip skips whitespace and then c, reporting whether c was there.
func (p *plainScanner) skip(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str scans a string literal at p.i and returns the bounds of its contents.
// ok is false for anything json.Unmarshal would reject or rewrite: a control
// character, an unknown escape, a surrogate \u escape, or invalid UTF-8.
func (p *plainScanner) str() (lo, hi int, escaped, ok bool) {
	b := p.b
	if p.i >= len(b) || b[p.i] != '"' {
		return 0, 0, false, false
	}
	lo = p.i + 1
	ascii := true
	for i := lo; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(b[lo:i]) {
				return 0, 0, false, false
			}
			p.i = i + 1
			return lo, i, escaped, true
		case c == '\\':
			escaped = true
			if i+1 == len(b) {
				return 0, 0, false, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if r, ok := hex4(b[i+2:]); !ok || utf8.RuneLen(r) < 0 {
					return 0, 0, false, false
				}
				i += 5
			default:
				return 0, 0, false, false
			}
		case c < 0x20:
			return 0, 0, false, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0, 0, false, false
}

// integer scans a JSON integer of at most 18 digits (so it cannot
// overflow) at p.i; a fraction or exponent leaves ok false at the caller's
// next delimiter check.
func (p *plainScanner) integer() (v int, ok bool) {
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(b) && b[i] >= '0' && b[i] <= '9' && i-start < 19 {
		v = v*10 + int(b[i]-'0')
		i++
	}
	digits := i - start
	if digits == 0 || digits > 18 || digits > 1 && b[start] == '0' {
		return 0, false
	}
	if neg {
		v = -v
	}
	p.i = i
	return v, true
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// unescapeInPlace rewrites the contents of a string literal that str
// accepted to the bytes they denote and returns them: each escape is at
// least as long as what it denotes, so the write never overtakes the read.
func unescapeInPlace(s []byte) []byte {
	w := 0
	for r := 0; r < len(s); {
		k := bytes.IndexByte(s[r:], '\\')
		if k < 0 {
			w += copy(s[w:], s[r:])
			break
		}
		w += copy(s[w:], s[r:r+k])
		r += k
		c := s[r+1]
		switch c {
		case 'u':
			v, _ := hex4(s[r+2:])
			w += utf8.EncodeRune(s[w:], v)
			r += 6
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		}
		s[w] = c
		w++
		r += 2
	}
	return s[:w]
}
