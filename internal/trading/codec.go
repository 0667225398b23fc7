package trading

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"qtrade/internal/cost"
	"qtrade/internal/value"
)

// The trading codec: the two bulk payloads of the wire — the rows of a
// shipped answer (ExecResp.Rows) and the offers of a bid reply
// (BidReply.Offers) — and the prices of an improvement request
// (ImproveReq.Prices) encode themselves in the format below, carried as one
// opaque field inside net/rpc's gob envelope. Every other message, and every
// other field of these three, is plain gob. The prices are here not for their
// size but for their count: gob sizes a map from the count it is sent before
// it reads one entry, so a map-typed request field lets a forged count ask a
// seller for gigabytes.
//
//	rows:   version, uvarint rows, uvarint values (the sum of the widths),
//	        then per row: uvarint width, then per value: kind byte, payload
//	value:  Null nothing | Int zigzag varint | Float uvarint of the IEEE bits
//	        byte-reversed, as gob writes floats (whole numbers stay short;
//	        every NaN payload and -0.0 survive) | Str uvarint length, bytes |
//	        Bool one byte, 0 or 1
//	offers: version, uvarint offers, bindings, part ids and columns (totals
//	        over every offer), then per offer: OfferID, RFBID, QID, SellerID,
//	        SQL; uvarint n + n Bindings; uvarint 0 for a nil Parts, else 1 +
//	        entries, each key + uvarint n + n ids; a flags byte (Complete 1,
//	        Stripped 2, FromView 4, PartialAgg 8); uvarint n + n Cols (Table,
//	        Name, kind byte); the Props fields in declaration order (Rows a
//	        zigzag varint, the rest floats); Price
//	prices: version, uvarint entries, then per entry: QID, Best, Target
//
// A string is a uvarint length and its bytes. A value ships its kind's payload
// only. Decoding allocates per message, not per row or per offer: one slice
// of row headers over one value slab (every row a full-capped sub-slice), and
// one slab each for offers' bindings, part ids and columns; every string
// slices one copy of the message, so nothing aliases gob's buffer. Zero rows
// or prices, and empty Bindings, Cols or part-id lists, decode as nil, as gob
// decodes them; a nil Parts stays nil and an empty one empty, as under gob. Every
// count is checked against the bytes left before anything is allocated, and a
// truncated message, an unknown version or kind, or trailing bytes is an
// error, never a panic.
//
// A node of this build and one of an older build, which shipped these fields
// as plain gob, do not understand each other's answers, bids or improvement
// requests.
const codecVersion = 1

// Rows is a batch of answer rows, the executor's []value.Row; it crosses the
// wire in the trading codec.
type Rows []value.Row

// Offers is a bid reply's offers; it crosses the wire in the trading codec.
type Offers []Offer

// QueryPrices is an improvement request's entries; it crosses the wire in the
// trading codec.
type QueryPrices []QueryPrice

// minOfferBytes is the shortest encoding of one offer: five empty strings,
// three zero counts (bindings, parts, columns), the flags byte, and nine
// one-byte numbers (Props, Price).
const minOfferBytes = 5 + 3 + 1 + 9

// GobEncode writes the rows in the trading codec.
func (rs Rows) GobEncode() ([]byte, error) {
	values := 0
	size := 1
	for _, row := range rs {
		values += len(row)
		size += uvarintLen(uint64(len(row))) + len(row)
		for _, v := range row {
			switch v.K {
			case value.Int:
				size += uvarintLen(zigzag(v.I))
			case value.Float:
				size += uvarintLen(floatWire(v.F))
			case value.Str:
				size += strLen(v.S)
			case value.Bool:
				size++
			case value.Null:
			default:
				return nil, fmt.Errorf("trading codec: cannot encode a value of %s", v.K)
			}
		}
	}
	size += uvarintLen(uint64(len(rs))) + uvarintLen(uint64(values))
	b := make([]byte, 0, size)
	b = append(b, codecVersion)
	b = binary.AppendUvarint(b, uint64(len(rs)))
	b = binary.AppendUvarint(b, uint64(values))
	for _, row := range rs {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = append(b, byte(v.K))
			switch v.K {
			case value.Int:
				b = binary.AppendVarint(b, v.I)
			case value.Float:
				b = binary.AppendUvarint(b, floatWire(v.F))
			case value.Str:
				b = appendStr(b, v.S)
			case value.Bool:
				b = append(b, boolByte(v.B))
			}
		}
	}
	return b, nil
}

// GobDecode reads rows in the trading codec.
func (rs *Rows) GobDecode(data []byte) error {
	r := reader{data: data}
	r.version()
	n, total := r.count(1), r.count(1)
	if r.err != nil || n == 0 {
		*rs = nil
		if total != 0 {
			r.fail("values without rows")
		}
		return r.end()
	}
	rows := make(Rows, n)
	slab := make([]value.Value, total)
	for i := range rows {
		w := r.count(1)
		if w > len(slab) {
			r.fail("row wider than the values left")
		}
		if r.err != nil {
			break
		}
		if w == 0 {
			continue
		}
		row := slab[:w:w]
		slab = slab[w:]
		for j := range row {
			row[j] = r.value()
		}
		rows[i] = row
	}
	if r.err == nil && len(slab) != 0 {
		r.fail("fewer values than announced")
	}
	if err := r.end(); err != nil {
		return err
	}
	*rs = rows
	return nil
}

// GobEncode writes the offers in the trading codec.
func (offs Offers) GobEncode() ([]byte, error) {
	var nb, np, nc int
	size := 1
	for i := range offs {
		o := &offs[i]
		nb, nc = nb+len(o.Bindings), nc+len(o.Cols)
		size += strLen(o.OfferID) + strLen(o.RFBID) + strLen(o.QID) + strLen(o.SellerID) + strLen(o.SQL)
		size += stringsLen(o.Bindings) + 1
		if o.Parts != nil {
			size += uvarintLen(uint64(len(o.Parts)) + 1)
			for k, ids := range o.Parts {
				np += len(ids)
				size += strLen(k) + stringsLen(ids)
			}
		} else {
			size++
		}
		size += uvarintLen(uint64(len(o.Cols)))
		for _, c := range o.Cols {
			size += strLen(c.Table) + strLen(c.Name) + 1
		}
		p := &o.Props
		size += floatLen(p.TotalTime) + floatLen(p.FirstRow) + floatLen(p.RowsPerSec) + uvarintLen(zigzag(p.Rows)) +
			floatLen(p.Bytes) + floatLen(p.Freshness) + floatLen(p.Completeness) + floatLen(p.Money) + floatLen(o.Price)
	}
	size += uvarintLen(uint64(len(offs))) + uvarintLen(uint64(nb)) + uvarintLen(uint64(np)) + uvarintLen(uint64(nc))
	b := make([]byte, 0, size)
	b = append(b, codecVersion)
	for _, n := range [...]int{len(offs), nb, np, nc} {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for i := range offs {
		o := &offs[i]
		for _, s := range [...]string{o.OfferID, o.RFBID, o.QID, o.SellerID, o.SQL} {
			b = appendStr(b, s)
		}
		b = appendStrs(b, o.Bindings)
		if o.Parts == nil {
			b = append(b, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(o.Parts))+1)
			for k, ids := range o.Parts {
				b = appendStr(b, k)
				b = appendStrs(b, ids)
			}
		}
		b = append(b, boolByte(o.Complete)|boolByte(o.Stripped)<<1|boolByte(o.FromView)<<2|boolByte(o.PartialAgg)<<3)
		b = binary.AppendUvarint(b, uint64(len(o.Cols)))
		for _, c := range o.Cols {
			b = appendStr(b, c.Table)
			b = appendStr(b, c.Name)
			b = append(b, byte(c.Kind))
		}
		p := &o.Props
		for _, f := range [...]float64{p.TotalTime, p.FirstRow, p.RowsPerSec} {
			b = binary.AppendUvarint(b, floatWire(f))
		}
		b = binary.AppendVarint(b, p.Rows)
		for _, f := range [...]float64{p.Bytes, p.Freshness, p.Completeness, p.Money, o.Price} {
			b = binary.AppendUvarint(b, floatWire(f))
		}
	}
	return b, nil
}

// GobDecode reads offers in the trading codec.
func (offs *Offers) GobDecode(data []byte) error {
	r := reader{data: data}
	r.version()
	n := r.count(minOfferBytes)
	nb, np, nc := r.count(1), r.count(1), r.count(3)
	if r.err != nil || n == 0 {
		*offs = nil
		if nb+np+nc != 0 {
			r.fail("offer contents without offers")
		}
		return r.end()
	}
	offers := make(Offers, n)
	bindings, parts, cols := make([]string, nb), make([]string, np), make([]ColSpec, nc)
	for i := range offers {
		o := &offers[i]
		o.OfferID, o.RFBID, o.QID, o.SellerID, o.SQL = r.string(), r.string(), r.string(), r.string(), r.string()
		o.Bindings = r.strings(&bindings)
		if m := r.count(2); m > 0 { // 0: nil; else 1 + entries, each a key and a count
			o.Parts = make(map[string][]string, m-1)
			for ; m > 1 && r.err == nil; m-- {
				k := r.string()
				o.Parts[k] = r.strings(&parts)
			}
		}
		flags := r.byte()
		if flags > 15 {
			r.fail("unknown offer flags")
		}
		o.Complete, o.Stripped, o.FromView, o.PartialAgg = flags&1 != 0, flags&2 != 0, flags&4 != 0, flags&8 != 0
		if k := r.count(3); k > len(cols) {
			r.fail("more columns than announced")
		} else if k > 0 {
			o.Cols, cols = cols[:k:k], cols[k:]
			for j := range o.Cols {
				o.Cols[j] = ColSpec{Table: r.string(), Name: r.string(), Kind: value.Kind(r.byte())}
			}
		}
		o.Props = cost.Valuation{TotalTime: r.float(), FirstRow: r.float(), RowsPerSec: r.float(), Rows: r.varint(),
			Bytes: r.float(), Freshness: r.float(), Completeness: r.float(), Money: r.float()}
		o.Price = r.float()
		if r.err != nil {
			break
		}
	}
	if r.err == nil && len(bindings)+len(parts)+len(cols) != 0 {
		r.fail("fewer bindings, part ids or columns than announced")
	}
	if err := r.end(); err != nil {
		return err
	}
	*offs = offers
	return nil
}

// GobEncode writes the prices in the trading codec.
func (ps QueryPrices) GobEncode() ([]byte, error) {
	size := 1 + uvarintLen(uint64(len(ps)))
	for _, p := range ps {
		size += strLen(p.QID) + floatLen(p.Best) + floatLen(p.Target)
	}
	b := make([]byte, 0, size)
	b = append(b, codecVersion)
	b = binary.AppendUvarint(b, uint64(len(ps)))
	for _, p := range ps {
		b = appendStr(b, p.QID)
		b = binary.AppendUvarint(b, floatWire(p.Best))
		b = binary.AppendUvarint(b, floatWire(p.Target))
	}
	return b, nil
}

// GobDecode reads prices in the trading codec. An entry takes at least three
// bytes (an empty QID and two one-byte floats).
func (ps *QueryPrices) GobDecode(data []byte) error {
	r := reader{data: data}
	r.version()
	var prices QueryPrices
	if n := r.count(3); n > 0 {
		prices = make(QueryPrices, n)
	}
	for i := range prices {
		prices[i] = QueryPrice{QID: r.string(), Best: r.float(), Target: r.float()}
	}
	if err := r.end(); err != nil {
		return err
	}
	*ps = prices
	return nil
}

// reader walks one message. Every read checks the bytes left; the first
// failure sticks, and later reads return zero values.
type reader struct {
	data []byte
	pos  int
	str  string // data as one string, made at the first non-empty string
	err  error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("trading codec: %s at byte %d of %d", what, r.pos, len(r.data))
	}
}

func (r *reader) version() {
	if v := r.byte(); r.err == nil && v != codecVersion {
		r.fail(fmt.Sprintf("unknown version %d", v))
	}
}

// end reports the first failure, or trailing bytes after a whole message.
func (r *reader) end() error {
	if r.err == nil && r.pos != len(r.data) {
		r.fail("trailing bytes")
	}
	return r.err
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos == len(r.data) {
		r.fail("truncated")
		return 0
	}
	r.pos++
	return r.data[r.pos-1]
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.pos += n
	return u
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) float() float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.uvarint()))
}

// count reads a count of items that take at least `least` bytes each, failing
// when the bytes left cannot hold them: what a count sizes is bounded by the
// message's length.
func (r *reader) count(least int) int {
	u := r.uvarint()
	if u > uint64(len(r.data)-r.pos)/uint64(least) {
		r.fail("count beyond the message")
		return 0
	}
	return int(u)
}

func (r *reader) string() string {
	n := r.count(1)
	if n == 0 {
		return ""
	}
	if r.str == "" {
		r.str = string(r.data)
	}
	r.pos += n
	return r.str[r.pos-n : r.pos]
}

// strings reads a counted list of strings into the front of *slab.
func (r *reader) strings(slab *[]string) []string {
	n := r.count(1)
	if n > len(*slab) {
		r.fail("more strings than announced")
		return nil
	}
	if n == 0 {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	for i := range s {
		s[i] = r.string()
	}
	return s
}

func (r *reader) value() value.Value {
	switch k := value.Kind(r.byte()); k {
	case value.Null:
		return value.Value{}
	case value.Int:
		return value.Value{K: k, I: r.varint()}
	case value.Float:
		return value.Value{K: k, F: r.float()}
	case value.Str:
		return value.Value{K: k, S: r.string()}
	case value.Bool:
		b := r.byte()
		if b > 1 {
			r.fail("bad bool")
		}
		return value.Value{K: k, B: b == 1}
	default:
		r.fail(fmt.Sprintf("unknown kind %d", k))
		return value.Value{}
	}
}

func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }

// floatWire is gob's float encoding: the IEEE bits byte-reversed, so a
// number whose low mantissa bytes are zero is a short uvarint.
func floatWire(f float64) uint64 { return bits.ReverseBytes64(math.Float64bits(f)) }

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }
func floatLen(f float64) int  { return uvarintLen(floatWire(f)) }
func strLen(s string) int     { return uvarintLen(uint64(len(s))) + len(s) }
func stringsLen(ss []string) int {
	n := uvarintLen(uint64(len(ss)))
	for _, s := range ss {
		n += strLen(s)
	}
	return n
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
