-- A DML trigger's read of [new] is a cached statement shape: three keyed
-- UPDATEs fire the trigger three times, and the second and third firings
-- are served from the first one's plan (\plans shows hits=2 on Scan new).
CREATE TABLE acct (id INT PRIMARY KEY, v INT);
CREATE TABLE log (v INT);
INSERT INTO acct VALUES (1, 10), (2, 20), (3, 30);
CREATE TRIGGER keep ON acct AFTER UPDATE AS INSERT INTO log SELECT v FROM new;
UPDATE acct SET v = v + 1 WHERE id = 1;
UPDATE acct SET v = v + 1 WHERE id = 2;
UPDATE acct SET v = v + 1 WHERE id = 3;
\plans
