package dve

import (
	"bytes"
	"fmt"
	"strings"

	"dvemig/internal/netstack"
	"dvemig/internal/proc"
)

// DBPort is the database server port (MySQL's well-known port, matching
// the paper's MySQL sessions).
const DBPort = 3306

// DBServer is the database node's server process: a small key-value
// store speaking a line-oriented protocol ("SET key value;" → "OK;",
// "GET key;" → "VAL value;"). Zone servers keep one session each and
// repeatedly update properties of the virtual world (§VI-C).
type DBServer struct {
	Node     *proc.Node
	Proc     *proc.Process
	listener *netstack.TCPSocket
	store    map[string]string

	// Sessions counts accepted connections; Queries counts commands.
	Sessions int
	Queries  uint64
}

// StartDBServer launches the database on a node.
func StartDBServer(n *proc.Node) (*DBServer, error) {
	s := &DBServer{Node: n, store: make(map[string]string)}
	s.Proc = n.Spawn("mysqld", 4)
	s.Proc.CPUDemand = 0.1
	s.listener = netstack.NewTCPSocket(n.Stack)
	if err := s.listener.Listen(n.LocalIP, DBPort); err != nil {
		return nil, err
	}
	s.listener.OnAccept = func(ch *netstack.TCPSocket) {
		s.Sessions++
		s.Proc.FDs.Install(&proc.TCPFile{Sock: ch})
		var buf []byte
		ch.OnReadable = func() {
			buf = append(buf, ch.Recv()...)
			for {
				idx := bytes.IndexByte(buf, ';')
				if idx < 0 {
					return
				}
				cmd := string(buf[:idx])
				// Compact: keep the unconsumed tail at the front of the
				// same backing array.
				buf = buf[:copy(buf, buf[idx+1:])]
				s.handle(ch, cmd)
			}
		}
	}
	s.Proc.FDs.Install(&proc.TCPFile{Sock: s.listener})
	return s, nil
}

func (s *DBServer) handle(ch *netstack.TCPSocket, cmd string) {
	s.Queries++
	parts := strings.SplitN(strings.TrimSpace(cmd), " ", 3)
	switch {
	case len(parts) == 3 && parts[0] == "SET":
		s.store[parts[1]] = parts[2]
		_ = ch.Send([]byte("OK;"))
	case len(parts) == 2 && parts[0] == "GET":
		_ = ch.Send([]byte(fmt.Sprintf("VAL %s;", s.store[parts[1]])))
	default:
		_ = ch.Send([]byte("ERR;"))
	}
}

// Get reads a stored value (test hook).
func (s *DBServer) Get(key string) string { return s.store[key] }
