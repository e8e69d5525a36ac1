CREATE TABLE "orders_city" (
    "city" TEXT NOT NULL,
    "zip" INTEGER,
    PRIMARY KEY ("city")
);

CREATE TABLE "orders_customer" (
    "customer" TEXT NOT NULL,
    "city" TEXT,
    PRIMARY KEY ("customer"),
    FOREIGN KEY ("city") REFERENCES "orders_city" ("city")
);

CREATE TABLE "orders" (
    "order_id" INTEGER NOT NULL,
    "customer" TEXT,
    "product" TEXT,
    "price" INTEGER,
    PRIMARY KEY ("order_id"),
    FOREIGN KEY ("customer") REFERENCES "orders_customer" ("customer")
);
